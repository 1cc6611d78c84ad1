package registry

import (
	"errors"
	"testing"
	"time"

	"dlte/internal/auth"
	"dlte/internal/geo"
	"dlte/internal/simnet"
)

func rec(id string, x, y float64) APRecord {
	return APRecord{ID: id, X2Addr: id + ":36422", X: x, Y: y,
		Band: "LTE band 5 (850 MHz)", EIRPdBm: 58, HeightM: 20, Mode: "fair-share"}
}

func TestStoreJoinListLeave(t *testing.T) {
	s := NewStore()
	if err := s.Join(rec("ap1", 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Join(rec("ap2", 5000, 0)); err != nil {
		t.Fatal(err)
	}
	rev := s.Revision()
	if rev == 0 {
		t.Error("revision not advancing")
	}
	all := s.List("")
	if len(all) != 2 || all[0].ID != "ap1" {
		t.Fatalf("List = %+v", all)
	}
	if got := s.List("other band"); len(got) != 0 {
		t.Errorf("band filter broken: %v", got)
	}
	if _, ok := s.Get("ap1"); !ok {
		t.Error("Get failed")
	}
	if err := s.Leave("ap1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Leave("ap1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double leave: %v", err)
	}
	if s.Revision() <= rev {
		t.Error("revision did not advance on leave")
	}
}

func TestStoreOpenJoinUpdates(t *testing.T) {
	// Re-joining updates in place (an AP owner reconfiguring).
	s := NewStore()
	s.Join(rec("ap1", 0, 0))
	r := rec("ap1", 999, 999)
	r.Mode = "cooperative"
	s.Join(r)
	got, _ := s.Get("ap1")
	if got.X != 999 || got.Mode != "cooperative" {
		t.Errorf("update lost: %+v", got)
	}
	if len(s.List("")) != 1 {
		t.Error("rejoin duplicated the record")
	}
}

func TestStoreValidation(t *testing.T) {
	s := NewStore()
	if err := s.Join(APRecord{}); !errors.Is(err, ErrBadRecord) {
		t.Errorf("empty record: %v", err)
	}
}

func TestStoreRegion(t *testing.T) {
	s := NewStore()
	s.Join(rec("in", 100, 100))
	s.Join(rec("out", 99999, 99999))
	got := s.InRegion("LTE band 5 (850 MHz)", geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000)))
	if len(got) != 1 || got[0].ID != "in" {
		t.Errorf("InRegion = %+v", got)
	}
}

func TestKeyPublicationRoundTrip(t *testing.T) {
	sim, err := auth.NewSIM("001010000000031")
	if err != nil {
		t.Fatal(err)
	}
	kr := NewKeyRecord(auth.KeyPublication{IMSI: sim.IMSI, K: sim.K, OPc: sim.OPc})
	pub, err := kr.Publication()
	if err != nil {
		t.Fatal(err)
	}
	if string(pub.IMSI) != string(sim.IMSI) || len(pub.K) != 16 || len(pub.OPc) != 16 {
		t.Errorf("publication = %+v", pub)
	}
	// And the recovered SIM authenticates.
	recovered := pub.SIM()
	if _, err := recovered.Milenage(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreKeys(t *testing.T) {
	s := NewStore()
	sim, _ := auth.NewSIM("001010000000032")
	kr := NewKeyRecord(auth.KeyPublication{IMSI: sim.IMSI, K: sim.K, OPc: sim.OPc})
	if err := s.PublishKey(kr); err != nil {
		t.Fatal(err)
	}
	if err := s.PublishKey(KeyRecord{IMSI: "bad"}); !errors.Is(err, ErrBadRecord) {
		t.Errorf("bad IMSI: %v", err)
	}
	if err := s.PublishKey(KeyRecord{IMSI: "001010000000033", K: "zz", OPc: "zz"}); err == nil {
		t.Error("bad hex accepted")
	}
	got, ok := s.FetchKey(string(sim.IMSI))
	if !ok || got.K != kr.K {
		t.Errorf("FetchKey = %+v ok=%v", got, ok)
	}
	if _, ok := s.FetchKey("404"); ok {
		t.Error("ghost key found")
	}
	if keys := s.Keys(); len(keys) != 1 {
		t.Errorf("Keys = %v", keys)
	}
}

func newClientServer(t *testing.T) (*Client, *Store) {
	t.Helper()
	n := simnet.NewVirtualNetwork(simnet.Link{Latency: time.Millisecond}, 1)
	t.Cleanup(n.Close)
	srvHost := n.MustAddHost("registry")
	cliHost := n.MustAddHost("ap1")
	store := NewStore()
	srv := NewServer(store)
	l, err := srvHost.Listen(8400)
	if err != nil {
		t.Fatal(err)
	}
	n.Clock().Go(func() { srv.Serve(l) })
	c, err := Dial(cliHost.Dial, "registry:8400")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, store
}

func TestClientServerFlow(t *testing.T) {
	c, store := newClientServer(t)

	if err := c.Join(rec("ap1", 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := c.Join(rec("ap2", 4000, 0)); err != nil {
		t.Fatal(err)
	}
	if store.Revision() < 2 {
		t.Error("server store not updated")
	}
	records, err := c.List("LTE band 5 (850 MHz)")
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 {
		t.Fatalf("List = %+v", records)
	}
	region, err := c.InRegion("LTE band 5 (850 MHz)", geo.NewRect(geo.Pt(-1, -1), geo.Pt(100, 100)))
	if err != nil {
		t.Fatal(err)
	}
	if len(region) != 1 || region[0].ID != "ap1" {
		t.Errorf("InRegion = %+v", region)
	}
	if err := c.Leave("ap2"); err != nil {
		t.Fatal(err)
	}
	records, _ = c.List("")
	if len(records) != 1 {
		t.Errorf("after leave: %+v", records)
	}
	// Error propagation.
	if err := c.Leave("ghost"); err == nil {
		t.Error("leave ghost succeeded")
	}
}

func TestClientServerKeys(t *testing.T) {
	c, _ := newClientServer(t)
	sim, _ := auth.NewSIM("001010000000034")
	kr := NewKeyRecord(auth.KeyPublication{IMSI: sim.IMSI, K: sim.K, OPc: sim.OPc})
	if err := c.PublishKey(kr); err != nil {
		t.Fatal(err)
	}
	got, err := c.FetchKey(string(sim.IMSI))
	if err != nil {
		t.Fatal(err)
	}
	if got.K != kr.K || got.OPc != kr.OPc {
		t.Errorf("fetched = %+v", got)
	}
	if _, err := c.FetchKey("001010000009999"); err == nil {
		t.Error("ghost key fetched")
	}
	keys, err := c.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 {
		t.Errorf("Keys = %v", keys)
	}
}

// TestClientRevision: the revision probe reports the server's counter
// over a live connection, and however large the registry is it costs
// one small fixed-size frame each way (the rev probe is 13 bytes; a
// 2048-AP list would be ~180 KB).
func TestClientRevision(t *testing.T) {
	c, store := newClientServer(t)
	seedGrid(t, store, 2048)
	if err := c.Join(rec("ap1", 0, 0)); err != nil {
		t.Fatal(err)
	}
	tx0, rx0 := c.Traffic()
	rev, err := c.Revision()
	if err != nil {
		t.Fatal(err)
	}
	if want := store.Revision(); rev != want {
		t.Errorf("Revision = %d, want %d", rev, want)
	}
	tx, rx := c.Traffic()
	if total := tx + rx - tx0 - rx0; total > 64 {
		t.Errorf("one revision probe moved %d bytes; a list pull instead of the rev probe?", total)
	}
}

func TestConcurrentClients(t *testing.T) {
	n := simnet.NewVirtualNetwork(simnet.Link{}, 1)
	t.Cleanup(n.Close)
	srvHost := n.MustAddHost("registry")
	store := NewStore()
	l, _ := srvHost.Listen(8400)
	n.Clock().Go(func() { NewServer(store).Serve(l) })

	clk := n.Clock()
	done := simnet.NewMailbox[error](clk.(*simnet.VirtualClock), 8)
	for i := 0; i < 8; i++ {
		h := n.MustAddHost(string(rune('a' + i)))
		clk.Go(func() {
			c, err := Dial(h.Dial, "registry:8400")
			if err != nil {
				done.Put(err)
				return
			}
			defer c.Close()
			for j := 0; j < 20; j++ {
				r := rec(h.Name(), float64(i*1000), 0)
				if err := c.Join(r); err != nil {
					done.Put(err)
					return
				}
				if _, err := c.List(""); err != nil {
					done.Put(err)
					return
				}
			}
			done.Put(nil)
		})
	}
	for i := 0; i < 8; i++ {
		if err, _ := done.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(store.List("")); got != 8 {
		t.Errorf("records = %d, want 8", got)
	}
}
