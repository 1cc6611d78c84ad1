package auth

import (
	"testing"

	"dlte/internal/leaktest"
)

// The AKA hot path (attach-storm rate) must not allocate beyond the
// escaping vector/key buffers themselves: Milenage temporaries, HMAC
// block state, and KDF strings all live in pooled scratch.

func hotpathMilenage(t testing.TB) *Milenage {
	t.Helper()
	k := []byte{0x46, 0x5b, 0x5c, 0xe8, 0xb1, 0x99, 0xb4, 0x9f, 0xaa, 0x5f, 0x0a, 0x2e, 0xe2, 0x38, 0xa6, 0xbc}
	opc := []byte{0xcd, 0x63, 0xcb, 0x71, 0x95, 0x4a, 0x9f, 0x4e, 0x48, 0xa5, 0x99, 0x4e, 0x37, 0xa0, 0x2b, 0xaf}
	m, err := NewMilenage(k, opc)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestGenerateVectorAllocBound(t *testing.T) {
	if leaktest.RaceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector; pooled paths allocate by design")
	}
	m := hotpathMilenage(t)
	rnd := make([]byte, 16)
	avg := testing.AllocsPerRun(200, func() {
		if _, err := GenerateVector(m, 42, "ap", rnd); err != nil {
			t.Fatal(err)
		}
	})
	// One backing buffer per vector (RAND‖XRES‖AUTN‖KASME).
	if avg > 1 {
		t.Errorf("GenerateVector allocs/op = %.1f, want <= 1", avg)
	}
}

func TestRespondAllocBound(t *testing.T) {
	if leaktest.RaceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector; pooled paths allocate by design")
	}
	m := hotpathMilenage(t)
	rnd := make([]byte, 16)
	v, err := GenerateVector(m, 42, "ap", rnd)
	if err != nil {
		t.Fatal(err)
	}
	ue := &UEContext{Mil: m}
	avg := testing.AllocsPerRun(200, func() {
		ue.HighestSQN = 0
		if _, err := ue.Respond(v.RAND, v.AUTN, "ap"); err != nil {
			t.Fatal(err)
		}
	})
	// One backing buffer per response (RES‖KASME).
	if avg > 1 {
		t.Errorf("Respond allocs/op = %.1f, want <= 1", avg)
	}
}

func TestMACContextZeroAlloc(t *testing.T) {
	kInt := make([]byte, 16)
	for i := range kInt {
		kInt[i] = byte(i)
	}
	c := NewMACContext(kInt)
	msg := []byte("attach accept payload")
	var mac [4]byte
	c.ComputeInto(7, msg, &mac)
	if !c.Verify(7, msg, mac[:]) {
		t.Fatal("MACContext does not verify its own MAC")
	}
	if c.Verify(8, msg, mac[:]) {
		t.Fatal("MACContext verified a wrong count")
	}
	// Must agree with the one-shot reference implementation.
	want := ComputeNASMAC(kInt, 7, msg)
	for i := range want {
		if want[i] != mac[i] {
			t.Fatalf("MACContext MAC %x != reference %x", mac, want)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		c.ComputeInto(7, msg, &mac)
		if !c.Verify(7, msg, mac[:]) {
			t.Fatal("verify failed")
		}
	})
	if avg != 0 {
		t.Errorf("MACContext compute+verify allocs/op = %.1f, want 0", avg)
	}
}

func TestNextVectorsBatch(t *testing.T) {
	db := NewSubscriberDB(true)
	sim, err := NewSIM("001010000000094")
	if err != nil {
		t.Fatal(err)
	}
	db.Provision(sim)

	vecs := make([]Vector, 8)
	if err := db.NextVectors(sim.IMSI, "ap", vecs); err != nil {
		t.Fatal(err)
	}
	m, _ := sim.Milenage()
	ue := &UEContext{Mil: m}
	// Every vector in the burst is fresh and strictly ordered from the
	// UE's point of view.
	for i, v := range vecs {
		if _, err := ue.Respond(v.RAND, v.AUTN, "ap"); err != nil {
			t.Fatalf("vector %d rejected: %v", i, err)
		}
	}
	if err := db.NextVectors("001019999999999", "ap", vecs); err == nil {
		t.Error("batch for unknown subscriber succeeded")
	}
	if err := db.NextVectors(sim.IMSI, "ap", nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
}

func TestNextVectorsAllocBound(t *testing.T) {
	if leaktest.RaceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector; pooled paths allocate by design")
	}
	db := NewSubscriberDB(true)
	sim, err := NewSIM("001010000000095")
	if err != nil {
		t.Fatal(err)
	}
	db.Provision(sim)
	vecs := make([]Vector, 4)
	avg := testing.AllocsPerRun(100, func() {
		if err := db.NextVectors(sim.IMSI, "ap", vecs); err != nil {
			t.Fatal(err)
		}
	})
	// One escaping buffer per vector; everything else is pooled.
	perVector := avg / float64(len(vecs))
	if perVector > 2 {
		t.Errorf("NextVectors allocs/vector = %.2f, want <= 2", perVector)
	}
}

func BenchmarkNextVector(b *testing.B) {
	db := NewSubscriberDB(true)
	sim, err := NewSIM("001010000000096")
	if err != nil {
		b.Fatal(err)
	}
	db.Provision(sim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.NextVector(sim.IMSI, "ap"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNextVectorBatch16(b *testing.B) {
	db := NewSubscriberDB(true)
	sim, err := NewSIM("001010000000097")
	if err != nil {
		b.Fatal(err)
	}
	db.Provision(sim)
	vecs := make([]Vector, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.NextVectors(sim.IMSI, "ap", vecs); err != nil {
			b.Fatal(err)
		}
	}
}
