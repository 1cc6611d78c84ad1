package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"dlte/internal/auth"
	"dlte/internal/geo"
	"dlte/internal/leaktest"
	"dlte/internal/radio"
	"dlte/internal/simnet"
	"dlte/internal/ue"
	"dlte/internal/x2"
)

// attachWorld is the bench command's attach_storm world: 4 APs 3 km
// apart on a 10 ms WAN, 8 UEs per AP at 0.1 to 4 km from it, every
// subscriber key synced to every AP. A round re-attaches all 32 UEs
// concurrently; re-attach without detach supersedes, so each round runs
// the whole attach path.
type attachWorld struct {
	s      *Scenario
	aps    []*AccessPoint
	ues    []*ue.Device
	air    []string
	attach []func() // per UE, built once so a round allocates no closures
	done   *simnet.Mailbox[error]
}

func newAttachWorld(t testing.TB) *attachWorld {
	t.Helper()
	s, err := NewScenario(simnet.Link{Latency: 10 * time.Millisecond}, 42)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	w := &attachWorld{s: s}
	for i := 0; i < 4; i++ {
		ap, err := s.AddAP(APConfig{
			ID: fmt.Sprintf("ap%d", i+1), Position: geo.Pt(float64(i)*3000, 0), Band: radio.LTEBand5,
			HeightM: 20, EIRPdBm: 58, Mode: x2.ModeFairShare, TAC: uint16(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		w.aps = append(w.aps, ap)
	}
	rng := rand.New(rand.NewSource(42))
	for i, ap := range w.aps {
		for j := 0; j < 8; j++ {
			name := fmt.Sprintf("ue%d-%d", i, j)
			d, err := s.AddUE(name, auth.IMSI(fmt.Sprintf("0010111%08d", i*100+j+1)))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.ConnectUERadio(name, ap.ID(), ap.Position().Add(0, 100+3900*rng.Float64())); err != nil {
				t.Fatal(err)
			}
			w.ues = append(w.ues, d)
			w.air = append(w.air, ap.AirAddr())
		}
	}
	for _, ap := range w.aps {
		if _, err := ap.SyncSubscriberKeys(); err != nil {
			t.Fatal(err)
		}
	}
	w.done = simnet.NewMailbox[error](s.Clock().(*simnet.VirtualClock), math.MaxInt)
	for k, d := range w.ues {
		air := w.air[k]
		w.attach = append(w.attach, func() {
			_, err := d.Attach(air, 30*time.Second)
			w.done.Put(err)
		})
	}
	return w
}

// round re-attaches every UE concurrently and waits for all of them.
func (w *attachWorld) round(t testing.TB) {
	t.Helper()
	for _, f := range w.attach {
		w.s.Clock().Go(f)
	}
	for range w.attach {
		err, rerr := w.done.Wait()
		if rerr != nil {
			t.Fatal(rerr)
		}
		if err != nil {
			t.Fatalf("attach: %v", err)
		}
	}
}

// attachAllocsBound bounds the allocations of one attach in the storm
// world: 1.1× the 27.03 it measured (43.06 before the per-attach wrappers,
// closures and address parses went). What is left is session
// state — the gateway session and its external socket, the GTP tunnels
// and their handlers, the S1 and NAS contexts, the NAS and AKA buffers,
// the UE's air conn and radio context — plus the harness's goroutine.
// Allocation counts do not depend on the machine, so the bound means
// the same on any host.
const attachAllocsBound = 30

// TestAttachAllocs bounds the allocations of one attach in the storm
// world, harness included (one clock goroutine per attach). The
// collector is off and GOMAXPROCS is 1, so no pool is emptied or missed
// mid-run.
func TestAttachAllocs(t *testing.T) {
	if leaktest.RaceEnabled {
		t.Skip("the race detector's shadow allocations inflate the count")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	w := newAttachWorld(t)
	for i := 0; i < 3; i++ { // first attaches, then supersedes: every table and pool is warm
		w.round(t)
	}
	const rounds = 40
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		w.round(t)
	}
	runtime.ReadMemStats(&after)
	got := float64(after.Mallocs-before.Mallocs) / float64(rounds*len(w.ues))
	t.Logf("%.2f allocs per attach, bound %d", got, attachAllocsBound)
	if got > attachAllocsBound {
		t.Errorf("an attach allocates %.2f times, want at most %d", got, attachAllocsBound)
	}
}

// ueTables are the sizes of every table that holds per-UE state in an
// attach world, summed over its APs.
type ueTables struct {
	tunnels    int // GTP tunnels at the gateways and eNodeBs
	sessions   int // gateway sessions
	sockets    int // packet sockets on the AP hosts
	radio      int // eNodeB radio contexts (byUEID)
	contexts   int // S1 UE contexts at the cores
	registered int // canonical sessions at the cores (byIMSI)
	gutis      int // GUTIs at the cores
	conns      int // open stream conns in the network
}

func (w *attachWorld) tables() ueTables {
	var u ueTables
	for _, ap := range w.aps {
		gw := ap.Core.Gateway()
		u.tunnels += gw.NumTunnels() + ap.ENB.NumTunnels()
		u.sessions += gw.NumSessions()
		h, _ := w.s.Net.Host(ap.ID())
		u.sockets += h.NumPacketConns()
		u.radio += ap.ENB.NumUEs()
		ct := ap.Core.Tables()
		u.contexts += ct.Contexts
		u.registered += ct.Registered
		u.gutis += ct.GUTIs
	}
	u.conns = w.s.Net.NumConns()
	return u
}

// settle waits for the world's tables to read want, failing with what
// they read instead.
func (w *attachWorld) settle(t *testing.T, what string, want ueTables) {
	t.Helper()
	if !w.s.Clock().(*simnet.VirtualClock).WaitUntil(5*time.Second, func() bool { return w.tables() == want }) {
		t.Fatalf("%s: tables %+v, want %+v", what, w.tables(), want)
	}
}

// TestReattachLeaksNothing re-attaches the storm world's 32 UEs round
// after round. Each round supersedes every session of the last, so
// every per-UE table must read, once the releases have run, exactly
// what it read after the first round; a superseded session that kept
// its external socket, a TEID or a context would grow one. After every
// UE detaches, the per-UE tables are empty and the sockets and conns
// are back to what the world held before anyone attached.
func TestReattachLeaksNothing(t *testing.T) {
	w := newAttachWorld(t)
	idle := w.tables()
	w.round(t)
	// An attach returns once the UE sent AttachComplete; the core
	// registers the GUTI when that arrives.
	n := len(w.ues)
	if !w.s.Clock().(*simnet.VirtualClock).WaitUntil(5*time.Second, func() bool { return w.tables().gutis == n }) {
		t.Fatalf("after one round: %d GUTIs registered, want %d", w.tables().gutis, n)
	}
	one := w.tables()
	// Per UE: a gateway session, its socket and TEID, the eNodeB's
	// downlink and uplink TEIDs, a radio context, an S1 context, a
	// registration and a GUTI.
	if one.sessions != n || one.registered != n || one.radio != n || one.contexts != n ||
		one.tunnels != 3*n || one.sockets != idle.sockets+n || one.conns != idle.conns+2*n {
		t.Fatalf("after one round of %d attaches: %+v (before any: %+v)", n, one, idle)
	}
	for k := 2; k <= 5; k++ {
		w.round(t)
		w.settle(t, fmt.Sprintf("after round %d", k), one)
	}
	for _, d := range w.ues {
		if err := d.Detach(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	w.settle(t, "after every UE detached", ueTables{sockets: idle.sockets, conns: idle.conns})
}
