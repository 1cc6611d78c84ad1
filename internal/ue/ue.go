// Package ue implements the user equipment: a software handset with a
// SIM that attaches to any eNodeB over the air interface, runs the NAS
// state machine, and moves user traffic once registered. Because the
// signaling contract is exactly the standard one, the same Device
// attaches to a dLTE stub core and to a centralized telecom EPC — the
// client-compatibility property the paper's local cores hinge on
// (§4.1).
package ue

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dlte/internal/auth"
	"dlte/internal/enb"
	"dlte/internal/epc"
	"dlte/internal/nas"
	"dlte/internal/simnet"
	"dlte/internal/wire"
)

// Errors from device operations.
var (
	ErrNotAttached = errors.New("ue: not attached")
	ErrTimeout     = errors.New("ue: timeout")
	ErrDetachedMid = errors.New("ue: connection lost")
)

// AttachResult reports a completed registration.
type AttachResult struct {
	// IP is the PDN address the network assigned.
	IP string
	// GUTI is the temporary identity.
	GUTI uint64
	// DirectBreakout echoes the network's architecture flag.
	DirectBreakout bool
	// Duration is the measured attach latency (first message to
	// AttachComplete sent).
	Duration time.Duration
}

// Device is one UE.
type Device struct {
	host *simnet.Host
	sim  auth.SIM

	mu       sync.Mutex
	nue      *nas.UE   // NAS/SIM state; guarded by mu (handler and callers both drive it)
	st       *airState // current radio association, nil when none
	attached bool
	result   AttachResult
	// rx queues downlink user packets for Recv. Allocated on the first
	// downlink packet or the first Recv of an association — the
	// control-plane never pays for it — and closed when the association
	// is lost.
	rx *simnet.Mailbox[rxPacket]
	// down is the bearer whose handler consumes downlink user packets
	// in place of rx (BearerConn.SetHandler); onDown is its handler.
	down   *BearerConn
	onDown func(data []byte, from net.Addr)

	// The pending procedure. Attach and Detach are run by the air
	// conn's delivery handler (airState.frame); the calling goroutine
	// only parks on done until the handler — or the deadline — ends it.
	proc      procKind
	procStart time.Time              // procedure start, for AttachResult.Duration
	gotSI     bool                   // attach: system information seen, AttachRequest sent
	done      *simnet.Mailbox[error] // depth 1: the pending procedure's outcome

	// sigTx/sigRx count NAS signaling payload bytes over the air in
	// each direction — the UE end of the mobility plane's measurement
	// seam (a handover's cost is the delta across the re-attach).
	sigTx, sigRx atomic.Uint64
	// rxDrops counts downlink packets dropped on a full rx queue.
	rxDrops atomic.Uint64
}

// procKind names the procedure a Device has pending.
type procKind uint8

const (
	procNone procKind = iota
	procAttach
	procDetach
)

var procNames = [...]string{procNone: "procedure", procAttach: "attach", procDetach: "detach"}

// rxQueueDepth bounds the downlink packets buffered for Recv; beyond
// it packets drop, like a full socket buffer.
const rxQueueDepth = 256

// rxPacket is one downlink packet as queued by the air handler: the
// payload sits in a pooled buffer whose ownership travels with the
// packet (the consumer releases it), and the remote endpoint is
// memoized across the run of packets from one peer, so steady-state
// delivery allocates nothing.
type rxPacket struct {
	remote string
	addr   net.Addr
	data   []byte // release with wire.PutFrame after consuming
}

// NewDevice creates a UE on the given host with the given SIM. The
// NAS/SIM state (SQN) persists across attaches, as in a real handset.
func NewDevice(host *simnet.Host, sim auth.SIM) (*Device, error) {
	nue, err := nas.NewUE(sim)
	if err != nil {
		return nil, err
	}
	done := simnet.NewMailbox[error](host.Clock().(*simnet.VirtualClock), 1)
	return &Device{host: host, sim: sim, nue: nue, done: done}, nil
}

// IMSI reports the device identity.
func (d *Device) IMSI() string { return string(d.sim.IMSI) }

// Publication returns the open-SIM key publication for this device —
// what a dLTE user uploads to the registry (§4.2).
func (d *Device) Publication() auth.KeyPublication {
	return auth.KeyPublication{IMSI: d.sim.IMSI, K: d.sim.K, OPc: d.sim.OPc}
}

// Attached reports whether the device currently holds a registration.
func (d *Device) Attached() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.attached
}

// IP reports the current PDN address ("" when detached).
func (d *Device) IP() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.attached {
		return ""
	}
	return d.result.IP
}

// SignalingBytes reports the total NAS signaling payload bytes this
// device has exchanged over the air (both directions) since creation.
// Monotonic; meant for deltas around an attach or handover.
func (d *Device) SignalingBytes() uint64 { return d.sigTx.Load() + d.sigRx.Load() }

// RxDrops reports how many downlink user packets this device has
// dropped because its receive queue was full (nobody draining Recv) —
// the UE end of the user plane's drop accounting, next to the core's
// epc.Stats().UserPlaneDrops.
func (d *Device) RxDrops() uint64 { return d.rxDrops.Load() }

// HandoverResult reports a completed roam to a new AP.
type HandoverResult struct {
	AttachResult
	// Interruption is the measured service gap: from the break with
	// the old AP (dLTE roaming is break-before-make) to registration
	// complete at the new one.
	Interruption time.Duration
	// SignalingBytes is the NAS signaling spent on the re-attach.
	SignalingBytes uint64
}

// Handover roams the device to the AP at airAddr, measuring the
// interruption window and the signaling the re-attach cost — the
// UE-side half of the mobility plane's measurement seam (the AP-side
// half, X2 choreography bytes, is metered by mobility.Plane).
func (d *Device) Handover(airAddr string, timeout time.Duration) (HandoverResult, error) {
	sigBefore := d.SignalingBytes()
	res, err := d.Attach(airAddr, timeout)
	if err != nil {
		return HandoverResult{}, err
	}
	return HandoverResult{
		AttachResult: res,
		// The break with the old AP is Attach's first act, at the very
		// instant its latency is measured from.
		Interruption:   res.Duration,
		SignalingBytes: d.SignalingBytes() - sigBefore,
	}, nil
}

// Attach connects to the AP at airAddr and runs the full registration
// handshake, returning the result with measured latency. Any previous
// association is dropped first (dLTE roaming is break-before-make), and
// a failed attach leaves none behind.
//
// The handshake itself runs in the air conn's delivery handler: the
// broadcast system information triggers the AttachRequest, each
// downlink NAS message is answered inline. The caller parks once, on
// the outcome or the deadline.
func (d *Device) Attach(airAddr string, timeout time.Duration) (AttachResult, error) {
	d.dropConn()

	start := d.host.Clock().Now()
	raw, err := d.host.Dial(airAddr)
	if err != nil {
		return AttachResult{}, fmt.Errorf("ue: air dial: %w", err)
	}
	sc := raw.(*simnet.Conn)
	st := &airState{d: d, raw: sc}
	st.air.Init(sc)

	d.mu.Lock()
	d.st = st
	d.begin(procAttach, start)
	d.mu.Unlock()
	sc.OnDeliverHandler(st)

	if err := d.await(timeout); err != nil {
		d.dropConn()
		return AttachResult{}, err
	}
	d.mu.Lock()
	res := d.result
	d.mu.Unlock()
	return res, nil
}

// Detach runs the detach handshake and drops the radio connection.
func (d *Device) Detach(timeout time.Duration) error {
	d.mu.Lock()
	st := d.st
	if !d.attached || st == nil {
		d.mu.Unlock()
		return ErrNotAttached
	}
	buf := wire.GetFrame()
	pdu, err := d.nue.StartDetachAppend(buf)
	if err == nil {
		// Pending before the request leaves, so the accept finds the
		// procedure whenever it is delivered.
		d.begin(procDetach, time.Time{})
	}
	d.mu.Unlock()
	if err == nil {
		err = st.sendAir(enb.AirNASUp, pdu)
	}
	wire.PutFrame(buf)
	if err != nil {
		d.mu.Lock()
		d.proc = procNone
		d.mu.Unlock()
		return err
	}
	if err := d.await(timeout); err != nil {
		return err
	}
	d.dropConn()
	return nil
}

// begin makes kind the pending procedure. Caller holds d.mu.
func (d *Device) begin(kind procKind, start time.Time) {
	d.proc, d.procStart, d.gotSI = kind, start, false
	d.done.Recv(0) // drop the outcome of a procedure nobody waited out
}

// finish ends the pending procedure with err, if it still is kind on
// association st, and wakes the goroutine parked in await. A successful
// attach registers here, its latency read off the clock at this
// delivery's instant. The wake is a Mailbox Put, which the clock tracks
// itself.
func (d *Device) finish(st *airState, kind procKind, err error) {
	d.mu.Lock()
	if d.st != st || d.proc != kind {
		d.mu.Unlock()
		return
	}
	if err == nil && kind == procAttach {
		d.attached = true
		d.result = AttachResult{
			IP:             d.nue.IPAddress,
			GUTI:           d.nue.GUTI,
			DirectBreakout: d.nue.Breakout,
			Duration:       d.host.Clock().Since(d.procStart),
		}
	}
	d.proc = procNone
	d.done.Put(err) // depth 1; begin drained it
	d.mu.Unlock()
}

// await parks the caller on the done mailbox until the pending
// procedure finishes or timeout elapses — the procedure's one goroutine
// park, a clock-owned wait with its own timeout.
func (d *Device) await(timeout time.Duration) error {
	if err, rerr := d.done.Recv(timeout); rerr == nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err, rerr := d.done.Recv(0); rerr == nil { // finished as the deadline fired
		return err
	}
	kind := d.proc
	d.proc = procNone
	if kind == procAttach && !d.gotSI {
		return fmt.Errorf("%w: no system information", ErrTimeout)
	}
	return fmt.Errorf("%w: %s after %v", ErrTimeout, procNames[kind], timeout)
}

// Send transmits an uplink user packet to remote ("host:port"). The
// stream prefix, the air frame and the user packet inside it are
// assembled in one pooled buffer — headroom, air header, user framing
// appended behind them, both lengths patched in — so the per-packet
// path allocates nothing and copies the payload once on its way to the
// stream.
func (d *Device) Send(remote string, payload []byte) error {
	d.mu.Lock()
	attached := d.attached
	st := d.st
	d.mu.Unlock()
	if !attached || st == nil {
		return ErrNotAttached
	}
	const hdr = wire.FrameHeadroom + 3 // stream prefix, air type, air length
	frame := append(wire.GetFramed(), uint8(enb.AirDataUp), 0, 0)
	frame, err := epc.AppendUserPacket(frame, remote, payload)
	if err != nil {
		wire.PutFrame(frame)
		return err
	}
	inner := len(frame) - hdr
	if inner > 0xFFFF {
		wire.PutFrame(frame)
		return fmt.Errorf("ue: user packet length %d overflows air frame", inner)
	}
	frame[hdr-2], frame[hdr-1] = byte(inner>>8), byte(inner)
	err = st.air.SendFramed(frame)
	wire.PutFrame(frame)
	return err
}

// recvPacket dequeues the next downlink packet, parking on the
// association's mailbox — a clock-owned wait that allocates nothing —
// when none is buffered. The caller owns the packet's pooled buffer and
// must release it with wire.PutFrame.
func (d *Device) recvPacket(timeout time.Duration) (rxPacket, error) {
	d.mu.Lock()
	rx := d.rxLocked()
	d.mu.Unlock()
	if rx == nil {
		return rxPacket{}, ErrNotAttached
	}
	p, err := rx.Recv(timeout)
	switch {
	case err == nil:
		return p, nil
	case errors.Is(err, simnet.ErrClosed):
		return rxPacket{}, ErrDetachedMid
	default:
		return rxPacket{}, fmt.Errorf("%w: recv after %v", ErrTimeout, timeout)
	}
}

// Recv waits for the next downlink user packet. The returned packet is
// the caller's to keep, so the payload is copied out of the pooled
// receive buffer; loss-tolerant bulk readers wanting the alloc-free
// path use BearerConn.ReadFrom instead.
func (d *Device) Recv(timeout time.Duration) (epc.UserPacket, error) {
	p, err := d.recvPacket(timeout)
	if err != nil {
		return epc.UserPacket{}, err
	}
	out := epc.UserPacket{Remote: p.remote, Payload: append([]byte(nil), p.data...)}
	wire.PutFrame(p.data)
	return out, nil
}

// Echo sends payload to remote and waits for one downlink packet —
// the basic RTT probe the experiments use. Retries the send every
// retryEvery until timeout (covers the brief window before the data
// path is fully bound).
func (d *Device) Echo(remote string, payload []byte, retryEvery, timeout time.Duration) (time.Duration, error) {
	clk := d.host.Clock()
	start := clk.Now()
	deadline := start.Add(timeout)
	for {
		if err := d.Send(remote, payload); err != nil {
			return 0, err
		}
		wait := retryEvery
		if rem := clk.Until(deadline); rem < wait {
			wait = rem
		}
		if wait <= 0 {
			return 0, fmt.Errorf("%w: echo after %v", ErrTimeout, timeout)
		}
		if _, err := d.Recv(wait); err == nil {
			return clk.Since(start), nil
		}
		if clk.Now().After(deadline) {
			return 0, fmt.Errorf("%w: echo after %v", ErrTimeout, timeout)
		}
	}
}

// rxLocked returns the downlink queue of the live association,
// allocating it on first use; nil when there is no live association.
// Caller holds d.mu.
func (d *Device) rxLocked() *simnet.Mailbox[rxPacket] {
	if d.rx == nil && d.st != nil && !d.st.lost {
		d.rx = simnet.NewMailbox[rxPacket](d.host.Clock().(*simnet.VirtualClock), rxQueueDepth)
	}
	return d.rx
}

// airState is one radio association: its conn, and the downlink frame
// consumer registered as the conn's delivery handler.
type airState struct {
	d   *Device
	raw *simnet.Conn
	air wire.FrameConn // frames raw's uplink; lives as long as the association
	// lost marks an association the network side ended; guarded by d.mu.
	lost bool
	// Downlink packets from one peer share a memoized remote string and
	// boxed address, so steady-state delivery costs one pooled copy and
	// no allocation.
	lastRemote string
	lastAddr   net.Addr
	// asm reassembles the downlink stream. Embedded (and airState
	// registered as the conn's StreamHandler) so an attach allocates one
	// state object, not a constellation of assembler plus closures.
	asm wire.FrameAssembler
}

// sendAir frames one uplink air message on the association.
func (st *airState) sendAir(t enb.AirMsgType, payload []byte) error {
	// Pooled assembly: the stream layer copies before returning.
	frame, err := enb.AppendAir(wire.GetFramed(), t, payload)
	if err == nil {
		err = st.air.SendFramed(frame)
	}
	if err == nil && t == enb.AirNASUp {
		st.d.sigTx.Add(uint64(len(payload)))
	}
	wire.PutFrame(frame)
	return err
}

// onFrame adapts frame to the assembler's emit signature. Passed as a
// call-only method value, so it does not escape or allocate.
func (st *airState) onFrame(frame []byte) error {
	st.frame(frame)
	return nil
}

// HandleDeliver implements simnet.StreamHandler: reassemble the chunk
// and consume each completed downlink frame inline.
func (st *airState) HandleDeliver(data []byte) {
	if st.asm.Feed(data, st.onFrame) != nil {
		st.asm.Reset()
		st.raw.Close()
		st.d.connLost(st)
	}
}

// HandleStreamClose implements simnet.StreamHandler: the eNodeB end
// closed the association.
func (st *airState) HandleStreamClose() {
	st.asm.Reset()
	st.d.connLost(st)
}

// frame consumes one downlink air frame on the delivery thread. frame
// is valid only for the duration of the call. A user packet goes to the
// bearer handler, if one is installed, as a view into frame; otherwise
// it is copied into its own pooled buffer and put in the rx mailbox,
// which wakes a parked reader through the clock. Signaling frames drive
// the pending procedure inline.
func (st *airState) frame(frame []byte) {
	d := st.d
	t, payload, err := enb.DecodeAirView(frame)
	if err != nil {
		return
	}
	switch t {
	case enb.AirBroadcast:
		// Cell search done: the broadcast names the serving network, so
		// the pending attach can send its AttachRequest.
		if si, err := enb.DecodeSystemInfo(payload); err == nil {
			st.systemInfo(si)
		}
	case enb.AirNASDown:
		d.sigRx.Add(uint64(len(payload)))
		st.nasDown(payload)
	case enb.AirDataDown:
		remote, data, err := epc.DecodeUserPacketView(payload)
		if err != nil {
			return
		}
		if string(remote) != st.lastRemote {
			st.lastRemote = string(remote)
			if a, err := simnet.ParseAddr(st.lastRemote); err == nil {
				st.lastAddr = a
			} else {
				st.lastAddr = simnet.Addr{Host: st.lastRemote}
			}
		}
		d.mu.Lock()
		var rx *simnet.Mailbox[rxPacket]
		var h func([]byte, net.Addr)
		if d.st == st {
			if h = d.onDown; h == nil {
				rx = d.rxLocked()
			}
		}
		d.mu.Unlock()
		if h != nil {
			h(data, st.lastAddr)
		} else if rx != nil {
			buf := append(wire.GetFrame(), data...)
			if !rx.Put(rxPacket{remote: st.lastRemote, addr: st.lastAddr, data: buf}) {
				// Receiver not draining; drop like a full buffer.
				wire.PutFrame(buf)
				d.rxDrops.Add(1)
			}
		}
	case enb.AirRelease:
		st.raw.Close()
		d.connLost(st)
	}
}

// systemInfo starts the pending attach's NAS exchange.
func (st *airState) systemInfo(si enb.SystemInfo) {
	d := st.d
	d.mu.Lock()
	if d.st != st || d.proc != procAttach || d.gotSI {
		d.mu.Unlock()
		return
	}
	d.gotSI = true
	buf := wire.GetFrame()
	pdu, err := d.nue.StartAttachAppend(buf, si.SNID)
	d.mu.Unlock()
	if err == nil {
		err = st.sendAir(enb.AirNASUp, pdu)
	}
	wire.PutFrame(buf)
	if err != nil {
		d.finish(st, procAttach, err)
	}
}

// nasDown feeds one downlink NAS message to the pending procedure and
// answers it inline.
func (st *airState) nasDown(pdu []byte) {
	d := st.d
	d.mu.Lock()
	kind := d.proc
	if d.st != st || kind == procNone {
		d.mu.Unlock()
		return
	}
	buf := wire.GetFrame()
	reply, done, err := d.nue.HandleAppend(pdu, buf)
	d.mu.Unlock()
	if err == nil && len(reply) > 0 {
		err = st.sendAir(enb.AirNASUp, reply)
	}
	wire.PutFrame(buf)
	if err != nil || done {
		d.finish(st, kind, err)
	}
}

// connLost finishes an association teardown the network side started:
// if st is still the current association, registration drops and the rx
// queue closes (waking blocked Recv callers). Idempotent.
func (d *Device) connLost(st *airState) {
	d.mu.Lock()
	if d.st == st {
		st.lost = true
		d.attached = false
		if d.rx != nil {
			d.rx.Close()
			d.rx = nil
		}
	}
	d.mu.Unlock()
}

// dropConn closes any existing radio association from the UE side.
func (d *Device) dropConn() {
	d.mu.Lock()
	st := d.st
	d.st = nil
	d.attached = false
	d.proc = procNone
	// A Recv still parked on the old queue keeps it until its own
	// deadline; the next association starts a fresh one.
	d.rx = nil
	d.mu.Unlock()
	if st != nil {
		st.raw.Close()
	}
}

// Close releases the device.
func (d *Device) Close() { d.dropConn() }
