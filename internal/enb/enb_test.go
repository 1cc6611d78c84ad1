package enb

import (
	"errors"
	"strings"
	"testing"
)

func TestAirCodecRoundTrip(t *testing.T) {
	for _, typ := range []AirMsgType{AirNASUp, AirNASDown, AirDataUp, AirDataDown, AirRelease, AirBroadcast} {
		payload := []byte{byte(typ), 0xFF}
		b, err := AppendAir(nil, typ, payload)
		if err != nil {
			t.Fatalf("%s: %v", typ, err)
		}
		gt, gp, err := DecodeAirView(b)
		if err != nil {
			t.Fatalf("%s: decode: %v", typ, err)
		}
		if gt != typ || string(gp) != string(payload) {
			t.Errorf("%s: got %s %v", typ, gt, gp)
		}
	}
}

func TestAirCodecEmptyPayload(t *testing.T) {
	b, err := AppendAir(nil, AirRelease, nil)
	if err != nil {
		t.Fatal(err)
	}
	typ, payload, err := DecodeAirView(b)
	if err != nil || typ != AirRelease || len(payload) != 0 {
		t.Errorf("empty payload: %v %v %v", typ, payload, err)
	}
}

func TestAirDecodeErrors(t *testing.T) {
	if _, _, err := DecodeAirView([]byte{1}); !errors.Is(err, ErrBadAirFrame) {
		t.Errorf("truncated: %v", err)
	}
	if _, _, err := DecodeAirView(nil); !errors.Is(err, ErrBadAirFrame) {
		t.Errorf("empty: %v", err)
	}
	// Length prefix overruns the buffer.
	if _, _, err := DecodeAirView([]byte{1, 0, 9, 1}); !errors.Is(err, ErrBadAirFrame) {
		t.Errorf("overrun: %v", err)
	}
}

func TestAirTypeNames(t *testing.T) {
	for typ := AirNASUp; typ <= AirBroadcast; typ++ {
		if strings.HasPrefix(typ.String(), "Air(") {
			t.Errorf("missing name for %d", typ)
		}
	}
	if AirMsgType(99).String() != "Air(99)" {
		t.Error("unknown render")
	}
}

func TestSystemInfoRoundTrip(t *testing.T) {
	si := SystemInfo{SNID: "dlte-ap-7", TAC: 42}
	b, err := EncodeSystemInfo(si)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSystemInfo(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != si {
		t.Errorf("round trip = %+v", got)
	}
	if _, err := DecodeSystemInfo([]byte{9}); !errors.Is(err, ErrBadAirFrame) {
		t.Errorf("truncated SI: %v", err)
	}
}
