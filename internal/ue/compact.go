package ue

import "unsafe"

// Compact idle-endpoint state (DESIGN.md §11): a million parked UEs
// cannot each be a Device — goroutine stack, channels, pooled frames —
// so worlds that only need attach-and-idle semantics keep each UE as a
// slot in a struct-of-arrays arena. A slot holds exactly the state an
// idle, registered endpoint must retain (identity, bearer address,
// registration progress); its timers park in the simnet wheel, keyed
// back to the slot by index. On first real activity the slot is
// promoted: Promote returns the identity record the caller uses to
// provision and attach a full Device, and the slot stops tracking the
// endpoint.

// IdleState is the lifecycle of a compact slot.
type IdleState uint8

const (
	IdleVacant    IdleState = iota // free-list member
	IdleParked                     // allocated, attach not yet started
	IdleAttaching                  // attach signaling modeled in flight
	IdleAttached                   // registered; periodic TAU parked in the wheel
	IdlePromoted                   // handed off to a full Device
)

// IdlePool is a fixed-capacity struct-of-arrays arena of compact idle
// UEs with LIFO free-list recycling. Not safe for concurrent use; in
// sharded worlds each region owns one pool.
type IdlePool struct {
	guti  []uint64
	ip    []uint32
	tau   []uint32 // tracking-area updates performed while idle
	state []IdleState
	// free-list: next[i] chains vacant slots; freeHead indexes the top.
	next     []int32
	freeHead int32
	live     int
}

// IdleSlotBytes is the accounted per-UE cost of one compact slot — the
// sum of the parallel-array element sizes. The E13 bytes/idle-UE
// budget is IdleSlotBytes + simnet.EventBytes: this slot plus the one
// parked TAU timer, an indexed wheel key with no record behind it.
var IdleSlotBytes = int(unsafe.Sizeof(uint64(0)) + unsafe.Sizeof(uint32(0)) +
	unsafe.Sizeof(uint32(0)) + unsafe.Sizeof(IdleState(0)) + unsafe.Sizeof(int32(0)))

// NewIdlePool returns an arena with capacity vacant slots.
func NewIdlePool(capacity int) *IdlePool {
	p := &IdlePool{
		guti:     make([]uint64, capacity),
		ip:       make([]uint32, capacity),
		tau:      make([]uint32, capacity),
		state:    make([]IdleState, capacity),
		next:     make([]int32, capacity),
		freeHead: -1,
	}
	// Push in reverse so Alloc hands out ascending indices from fresh.
	for i := capacity - 1; i >= 0; i-- {
		p.next[i] = p.freeHead
		p.freeHead = int32(i)
	}
	return p
}

// Alloc takes a vacant slot, returning its index, or false when the
// arena is full.
func (p *IdlePool) Alloc() (int, bool) {
	i := p.freeHead
	if i < 0 {
		return 0, false
	}
	p.freeHead = p.next[i]
	p.guti[i], p.ip[i], p.tau[i] = 0, 0, 0
	p.state[i] = IdleParked
	p.live++
	return int(i), true
}

// Release returns a slot to the free list (detach, or cleanup after
// promotion).
func (p *IdlePool) Release(i int) {
	if p.state[i] == IdleVacant {
		return
	}
	p.state[i] = IdleVacant
	p.next[i] = p.freeHead
	p.freeHead = int32(i)
	p.live--
}

// Live reports the number of occupied slots; Cap the arena capacity.
func (p *IdlePool) Live() int { return p.live }
func (p *IdlePool) Cap() int  { return len(p.state) }

// State reports slot i's lifecycle state.
func (p *IdlePool) State(i int) IdleState { return p.state[i] }

// StartAttach marks slot i's attach signaling as in flight.
func (p *IdlePool) StartAttach(i int) { p.state[i] = IdleAttaching }

// Register completes slot i's registration with its assigned identity.
func (p *IdlePool) Register(i int, guti uint64, ip uint32) {
	p.guti[i], p.ip[i] = guti, ip
	p.state[i] = IdleAttached
}

// TrackingAreaUpdate counts one idle-mode TAU against slot i.
func (p *IdlePool) TrackingAreaUpdate(i int) { p.tau[i]++ }

// TAUCount reports slot i's idle-mode TAU count.
func (p *IdlePool) TAUCount(i int) uint32 { return p.tau[i] }

// GUTI and IP report slot i's registered identity.
func (p *IdlePool) GUTI(i int) uint64 { return p.guti[i] }
func (p *IdlePool) IP(i int) uint32   { return p.ip[i] }

// PromoteRecord is the identity a promoted endpoint carries into its
// full Device: enough to provision a SIM and re-attach through the
// real stack.
type PromoteRecord struct {
	Index int
	GUTI  uint64
	IP    uint32
	TAUs  uint32
}

// Promote hands slot i off to a full endpoint: the slot's identity is
// returned and the slot stops tracking the UE (parked wheel timers
// that later fire for it must check State and skip). The slot stays
// allocated until Release so the index is not reused underneath
// in-flight timers.
func (p *IdlePool) Promote(i int) PromoteRecord {
	rec := PromoteRecord{Index: i, GUTI: p.guti[i], IP: p.ip[i], TAUs: p.tau[i]}
	p.state[i] = IdlePromoted
	return rec
}
