// Package mobility owns the dLTE handover arc end to end: the RSRP
// trigger that decides a roam is due (trigger.go), the X2
// prepare/ack/complete choreography between the source and target APs,
// the per-handover state machine that keeps failure paths (rejection,
// peer death, duplicate completes) from stranding sessions, and the
// measurement seam (meter.go) that records interruption windows and
// signaling bytes for every handover the plane touches.
//
// Before this package the arc was smeared across layers: the X2
// dispatch lived in core's coordinator, the prepared-context table in
// the EPC's session table, the session-FSM transition in
// epc.CompleteHandover, and nothing tracked the source side's view of
// an in-flight handover at all (an ack could arrive and be dropped on
// the floor). The plane pulls those pieces behind one API: core
// injects its X2 agent and EPC stub via the small Sender/Core
// interfaces, and every handover-related X2 message funnels through
// HandleX2.
//
// Ownership rules (DESIGN.md §12): the plane owns handover *state* —
// who is preparing, prepared, rejected, completed — and the
// measurement records. It does not own protocol material: key import
// and session teardown stay with the EPC stub (reached through the
// Core interface), and wire encoding stays with x2. The session FSM
// remains the single authority on lifecycle legality; the plane only
// asks the EPC to fire events and treats a refusal as "already in a
// legal terminal state".
package mobility

import (
	"fmt"
	"sync"

	"dlte/internal/auth"
	"dlte/internal/wire"
	"dlte/internal/x2"
)

// State is the source side's view of one UE's in-flight handover.
type State uint8

// Handover states. The happy path is Idle → Preparing → Prepared →
// Completed; Rejected is the target's admission refusal and Aborted is
// the source giving up (target unreachable or dead mid-prepare).
const (
	StateIdle State = iota
	StatePreparing
	StatePrepared
	StateRejected
	StateCompleted
	StateAborted
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateIdle:
		return "IDLE"
	case StatePreparing:
		return "PREPARING"
	case StatePrepared:
		return "PREPARED"
	case StateRejected:
		return "REJECTED"
	case StateCompleted:
		return "COMPLETED"
	case StateAborted:
		return "ABORTED"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Sender is the X2 half the plane drives; *x2.Agent satisfies it.
type Sender interface {
	Send(peer string, msg x2.Message) error
}

// Core is what the plane needs from the serving EPC stub; *epc.Core
// satisfies it. The plane never reaches deeper: session teardown
// legality is the session FSM's job, behind CompleteHandover.
type Core interface {
	// ImportPublishedKey admits a pushed open-SIM publication so the
	// roaming UE's re-attach here authenticates locally.
	ImportPublishedKey(pub auth.KeyPublication) error
	// CompleteHandover ends the local lifecycle of a UE that landed at
	// a peer AP (Attached → Detached via the session FSM) and tears
	// down its gateway session. Must be idempotent: a duplicate or
	// late complete finds no session and is a no-op.
	CompleteHandover(imsi string) error
}

// AdmitFunc decides target-side handover admission. Returning false
// acks the request with Accepted=false and the given cause.
type AdmitFunc func(imsi, sourceAP string, rsrpDBm float64) (ok bool, cause uint8)

// Config shapes a plane.
type Config struct {
	// APID is this AP's identity (the SourceAP field of outbound
	// handover requests).
	APID string
	// X2 sends peer messages; Core reaches the serving EPC stub.
	X2   Sender
	Core Core
	// Admit is the target-side admission policy; nil accepts everyone
	// (dLTE's default: always room for a re-attaching client).
	Admit AdmitFunc
	// Trigger governs RSRP-based handover decisions; the zero value is
	// replaced by DefaultTrigger.
	Trigger Trigger
	// Meter receives this plane's measurement records; nil allocates a
	// private one. Experiments share one meter across planes so a
	// handover's X2 bytes (recorded at the source) and its
	// interruption window (recorded at the UE seam) land in one place.
	Meter *Meter
}

// outbound is the source side's record of one UE's in-flight handover.
type outbound struct {
	target string
	state  State
	cause  uint8 // target's rejection cause, when state == StateRejected
}

// Plane is one AP's mobility plane.
type Plane struct {
	cfg     Config
	trigger Trigger
	meter   *Meter

	mu       sync.Mutex
	outbound map[string]*outbound // IMSI → source-side handover state
	prepared map[string]string    // IMSI → source AP (target-side prepared contexts)
}

// NewPlane builds a plane from cfg.
func NewPlane(cfg Config) *Plane {
	trig := cfg.Trigger
	if trig == (Trigger{}) {
		trig = DefaultTrigger()
	}
	m := cfg.Meter
	if m == nil {
		m = NewMeter()
	}
	return &Plane{
		cfg:      cfg,
		trigger:  trig,
		meter:    m,
		outbound: make(map[string]*outbound),
		prepared: make(map[string]string),
	}
}

// Meter exposes the plane's measurement seam.
func (p *Plane) Meter() *Meter { return p.meter }

// Trigger exposes the plane's RSRP decision policy.
func (p *Plane) Trigger() Trigger { return p.trigger }

// SetAdmit replaces the target-side admission policy (tests inject
// rejection here).
func (p *Plane) SetAdmit(f AdmitFunc) {
	p.mu.Lock()
	p.cfg.Admit = f
	p.mu.Unlock()
}

// wireSize reports the framed on-the-wire size of an X2 message — what
// the agent's traffic meter charges for sending it. The frame is sized
// in a pooled encoder, so metering allocates nothing.
func wireSize(msg x2.Message) int {
	c := wire.GetEncoder()
	defer wire.PutEncoder(c)
	x2.Encode(c, msg)
	if c.Err() != nil {
		return 0
	}
	return c.Len() + 4 // frame header
}

// Prepare runs the source side of handover preparation: push the
// roaming UE's published key to the target (so its re-attach there is
// purely local) and request admission. The ack arrives asynchronously
// through HandleX2; watch State. Any previous record for this IMSI is
// superseded (a re-prepare after rejection or abort is legal).
func (p *Plane) Prepare(targetAP string, pub auth.KeyPublication, rsrpDBm float64) error {
	imsi := string(pub.IMSI)
	p.mu.Lock()
	p.outbound[imsi] = &outbound{target: targetAP, state: StatePreparing}
	p.mu.Unlock()
	p.meter.Begin(imsi, p.cfg.APID, targetAP)

	push := &x2.UEContextPush{IMSI: imsi, K: pub.K, OPc: pub.OPc}
	req := &x2.HandoverRequest{IMSI: imsi, SourceAP: p.cfg.APID, RSRPdBm: int32(rsrpDBm * 100)}
	if err := p.cfg.X2.Send(targetAP, push); err != nil {
		p.abortLocked(imsi)
		return fmt.Errorf("mobility: context push to %s: %w", targetAP, err)
	}
	p.meter.AddX2(imsi, wireSize(push))
	if err := p.cfg.X2.Send(targetAP, req); err != nil {
		p.abortLocked(imsi)
		return fmt.Errorf("mobility: handover request to %s: %w", targetAP, err)
	}
	p.meter.AddX2(imsi, wireSize(req))
	return nil
}

// Abort gives up on an in-flight preparation (target unreachable, or
// the source decided against the roam). Completed/rejected records are
// left alone.
func (p *Plane) Abort(imsi string) { p.abortLocked(imsi) }

func (p *Plane) abortLocked(imsi string) {
	p.mu.Lock()
	if ho := p.outbound[imsi]; ho != nil && (ho.state == StatePreparing || ho.state == StatePrepared) {
		ho.state = StateAborted
	}
	p.mu.Unlock()
}

// State reports the source side's view of the named UE's handover.
func (p *Plane) State(imsi string) State {
	p.mu.Lock()
	defer p.mu.Unlock()
	if ho := p.outbound[imsi]; ho != nil {
		return ho.state
	}
	return StateIdle
}

// RejectionCause reports the target's cause octet for a rejected
// handover (0 unless State is StateRejected).
func (p *Plane) RejectionCause(imsi string) uint8 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if ho := p.outbound[imsi]; ho != nil && ho.state == StateRejected {
		return ho.cause
	}
	return 0
}

// PreparedBy reports which peer AP (if any) pushed the named UE's
// context here — the target-side table that used to live in the EPC's
// session table.
func (p *Plane) PreparedBy(imsi string) (string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	src, ok := p.prepared[imsi]
	return src, ok
}

// NotifyComplete runs the target side's final step: tell the source AP
// its former client landed here, and retire the prepared-context
// entry. A send failure (source died mid-handover) still retires the
// entry — the UE is attached here regardless, and the source's own
// release path owns its cleanup.
func (p *Plane) NotifyComplete(sourceAP, imsi string) error {
	p.mu.Lock()
	delete(p.prepared, imsi)
	p.mu.Unlock()
	msg := &x2.HandoverComplete{IMSI: imsi, TargetAP: p.cfg.APID}
	if err := p.cfg.X2.Send(sourceAP, msg); err != nil {
		return fmt.Errorf("mobility: handover complete to %s: %w", sourceAP, err)
	}
	return nil
}

// HandleX2 dispatches one inbound peer message if it belongs to the
// mobility plane, reporting whether it was consumed. Core's X2 handler
// funnels every message through here first.
func (p *Plane) HandleX2(peerID string, msg x2.Message) bool {
	switch m := msg.(type) {
	case *x2.UEContextPush:
		p.handlePush(peerID, m)
	case *x2.HandoverRequest:
		p.handleRequest(peerID, m)
	case *x2.HandoverRequestAck:
		p.handleAck(peerID, m)
	case *x2.HandoverComplete:
		p.handleComplete(peerID, m)
	default:
		return false
	}
	return true
}

// handlePush is the target side of preparation: import the key so the
// re-attach authenticates locally, and remember who prepared it.
func (p *Plane) handlePush(peerID string, m *x2.UEContextPush) {
	pub := auth.KeyPublication{IMSI: auth.IMSI(m.IMSI), K: m.K, OPc: m.OPc}
	if err := p.cfg.Core.ImportPublishedKey(pub); err != nil {
		return // unusable context: never record it as prepared
	}
	p.mu.Lock()
	p.prepared[m.IMSI] = peerID
	p.mu.Unlock()
}

// handleRequest is target-side admission. dLTE's default policy always
// has room for a re-attaching client; an injected Admit can refuse,
// which also retires any prepared context so a rejected UE cannot look
// locally provisioned.
func (p *Plane) handleRequest(peerID string, m *x2.HandoverRequest) {
	p.mu.Lock()
	admit := p.cfg.Admit
	p.mu.Unlock()
	ok, cause := true, uint8(0)
	if admit != nil {
		ok, cause = admit(m.IMSI, m.SourceAP, float64(m.RSRPdBm)/100)
	}
	if !ok {
		p.mu.Lock()
		delete(p.prepared, m.IMSI)
		p.mu.Unlock()
	}
	p.cfg.X2.Send(peerID, &x2.HandoverRequestAck{IMSI: m.IMSI, Accepted: ok, Cause: cause})
}

// handleAck is the source side learning the target's admission
// decision. Acks for unknown or already-settled handovers are ignored
// (a late ack after an abort must not resurrect the record).
func (p *Plane) handleAck(peerID string, m *x2.HandoverRequestAck) {
	p.mu.Lock()
	ho := p.outbound[m.IMSI]
	if ho == nil || ho.target != peerID || ho.state != StatePreparing {
		p.mu.Unlock()
		return
	}
	if m.Accepted {
		ho.state = StatePrepared
	} else {
		ho.state = StateRejected
		ho.cause = m.Cause
	}
	p.mu.Unlock()
	p.meter.AddX2(m.IMSI, wireSize(m))
}

// handleComplete is the source side's cleanup: the UE landed at the
// target, so the local lifecycle ends through the session FSM and the
// gateway session goes with it. Duplicates are deduped here (the EPC
// call is idempotent too, but a deduped duplicate must not re-charge
// the meter).
func (p *Plane) handleComplete(peerID string, m *x2.HandoverComplete) {
	p.mu.Lock()
	ho := p.outbound[m.IMSI]
	if ho != nil && ho.state == StateCompleted {
		p.mu.Unlock()
		return
	}
	if ho == nil {
		// Target-initiated complete without a local prepare (the UE
		// roamed without warning); record it so a duplicate dedupes.
		ho = &outbound{target: peerID}
		p.outbound[m.IMSI] = ho
	}
	ho.state = StateCompleted
	p.mu.Unlock()
	p.meter.AddX2(m.IMSI, wireSize(m))
	p.cfg.Core.CompleteHandover(m.IMSI)
}
