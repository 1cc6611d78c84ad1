package nas

import (
	"errors"
	"fmt"

	"dlte/internal/auth"
	"dlte/internal/wire"
)

// Security errors.
var (
	ErrBadMAC = errors.New("nas: integrity check failed")
	ErrReplay = errors.New("nas: replayed NAS count")
)

// errNotActive is returned for sealed traffic before security
// activation.
var errNotActive = errors.New("nas: security not active")

// SecurityContext holds one direction's NAS security state. Each peer
// keeps an uplink and a downlink context with independent counters.
// What it seals is a Secured message: a replay-protected counter, a
// 32-bit MAC over count‖inner, and the inner serialized message.
// (Ciphering is omitted — the paper's trust model explicitly tolerates
// an open link layer, §4.2 — but integrity keeps the signaling
// unforgeable once security is activated.)
type SecurityContext struct {
	Keys auth.NASKeys
	// mac is the precomputed HMAC context over Keys.Int; it makes
	// per-message integrity allocation-free on the hot path.
	mac *auth.MACContext
	// keybuf backs Keys across activations, so a re-attach's fresh AKA
	// run re-derives in place instead of allocating.
	keybuf [32]byte
	// nextTx is the next COUNT to send; highestRx the last accepted.
	nextTx    uint32
	highestRx uint32
	active    bool
}

// Activate installs keys derived from KASME and enables protection.
// Re-activation (a re-attach superseding an old registration) reuses
// the context's key storage and MAC context — allocation-free.
func (c *SecurityContext) Activate(kasme []byte) {
	c.Keys = auth.DeriveNASKeysInto(kasme, c.keybuf[:0])
	if c.mac == nil {
		c.mac = auth.NewMACContext(c.Keys.Int)
	} else {
		c.mac.Rekey(c.Keys.Int)
	}
	c.active = true
	c.nextTx = 1
	c.highestRx = 0
}

// Active reports whether security has been activated.
func (c *SecurityContext) Active() bool { return c.active }

// reset deactivates the context for a fresh attach while keeping the
// reusable MAC state, so the next Activate allocates nothing.
func (c *SecurityContext) reset() {
	c.Keys = auth.NASKeys{}
	c.nextTx = 0
	c.highestRx = 0
	c.active = false
}

// SealAppend appends a Secured envelope protecting inner (a fully
// serialized NAS message, typically built in a pooled frame the caller
// still owns) to dst with the next counter value. The counter is
// consumed only on success.
func (c *SecurityContext) SealAppend(dst, inner []byte) ([]byte, error) {
	if !c.active {
		return dst, errNotActive
	}
	count := c.nextTx
	var mac [4]byte
	c.mac.ComputeInto(count, inner, &mac)
	out, err := Append(dst, &MsgView{Type: TypeSecured, Count: count, MAC: mac, Inner: inner})
	if err != nil {
		return dst, err
	}
	c.nextTx = count + 1
	return out, nil
}

// sealMsg encodes v in a pooled scratch frame and appends its Secured
// envelope to dst.
func (c *SecurityContext) sealMsg(dst []byte, v *MsgView) ([]byte, error) {
	frame := wire.GetFrame()
	inner, err := Append(frame, v)
	if err == nil {
		dst, err = c.SealAppend(dst, inner)
	}
	wire.PutFrame(frame)
	return dst, err
}

// OpenView verifies a decoded Secured envelope's MAC and replay
// counter without allocating; on success the caller decodes the inner
// bytes it already holds a view of.
func (c *SecurityContext) OpenView(count uint32, mac, inner []byte) error {
	if !c.active {
		return errNotActive
	}
	if len(mac) != 4 || !c.mac.Verify(count, inner, mac) {
		return ErrBadMAC
	}
	if count <= c.highestRx {
		return fmt.Errorf("%w: count %d ≤ %d", ErrReplay, count, c.highestRx)
	}
	c.highestRx = count
	return nil
}
