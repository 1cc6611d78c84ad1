package simnet

import (
	"sync"
	"time"
)

// Mailbox is a bounded FIFO whose receive side waits through the clock
// instead of around it: with Sleep, the only way a goroutine in a
// simulated world waits (see Clock).
//
// A parked Recv is a timed waiter on the clock's own heap, like a
// Sleep. A Put that finds a receiver parked cancels that
// waiter and takes the receiver's busy slot under the clock's mutex
// before releasing it, so the receiver is counted runnable from the
// instant it is woken — the advancer never has to guess (settle) whether
// someone is about to run. A Put that finds nobody parked only queues
// and touches no clock state.
//
// Put never blocks: beyond depth queued values it refuses, like a full
// socket buffer, and the caller counts the drop. Any goroutine or
// dispatch handler may Put; Recv and Wait must run on a clock-registered
// goroutine. The waiter of the common single receiver is embedded, so a
// parked receive allocates nothing; concurrent receivers are served in
// arrival order and allocate their own.
//
// Mailboxes are also simnet's blocking receive path: Conn.Read and
// PacketConn.ReadFrom wait on one that the dispatcher fills at each
// delivery instant, Listener.Accept on one fed at each arrival.
type Mailbox[T any] struct {
	vc    *VirtualClock
	depth int

	mu          sync.Mutex
	q           []T // ring, grown on demand up to depth
	head, n     int
	closed      bool
	first, last *mailWaiter[T] // parked receivers, oldest first
	own         mailWaiter[T]
	ownInUse    bool // own is parked in a receive
}

// mailWaiter is one parked receiver. state and val are written by
// whoever wakes it, under the mailbox's mutex, before its single token
// is sent.
type mailWaiter[T any] struct {
	vw    vwaiter       // the timeout
	armed bool          // vw is (or was) on the clock's heap for this park
	wake  chan struct{} // 1-buffered: exactly one token per park
	state mailState
	val   T
	next  *mailWaiter[T]
}

type mailState uint8

const (
	mailWaiting mailState = iota // still parked, or woken by the timeout
	mailGot                      // val was handed over
	mailClosed                   // the mailbox closed under it
)

// NewMailbox returns an empty mailbox holding at most depth values,
// whose receivers wait on vc.
func NewMailbox[T any](vc *VirtualClock, depth int) *Mailbox[T] {
	return &Mailbox[T]{vc: vc, depth: depth}
}

// Put hands v to the longest-parked receiver, or queues it. It reports
// false when v was dropped — the mailbox is full or closed — and the
// caller still owns whatever v references.
func (m *Mailbox[T]) Put(v T) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	if w := m.first; w != nil {
		m.unlink(w)
		w.val, w.state = v, mailGot
		m.wake(w)
		return true
	}
	if m.n == m.depth {
		return false
	}
	if m.n == len(m.q) {
		m.grow()
	}
	m.q[(m.head+m.n)%len(m.q)] = v
	m.n++
	return true
}

// Recv returns the next value, waiting up to timeout of the clock's
// time for one: ErrDeadline when none came, ErrClosed once the mailbox
// is closed and drained.
func (m *Mailbox[T]) Recv(timeout time.Duration) (T, error) {
	return m.recv(max(timeout, 0))
}

// Wait is Recv without a timeout. The receiver parks untimed: it gives
// up its busy slot with no heap entry, so only a Put, Close or the
// clock's own Close ends the wait — a far-future timeout would instead
// be fired by the advancer, jumping an idle world to the horizon. It
// returns ErrClosed once the mailbox is closed and drained, or when the
// clock closes under the wait.
func (m *Mailbox[T]) Wait() (T, error) { return m.recv(-1) }

// recvBy receives with a deadline on the mailbox's clock; the zero
// deadline waits untimed.
func (m *Mailbox[T]) recvBy(deadline time.Time) (T, error) {
	if deadline.IsZero() {
		return m.Wait()
	}
	return m.Recv(m.vc.Until(deadline))
}

// recv is Recv for timeout ≥ 0 and Wait for a negative one.
func (m *Mailbox[T]) recv(timeout time.Duration) (T, error) {
	var zero T
	m.mu.Lock()
	if m.n > 0 {
		v := m.q[m.head]
		m.q[m.head] = zero
		m.head = (m.head + 1) % len(m.q)
		m.n--
		m.mu.Unlock()
		return v, nil
	}
	if m.closed {
		m.mu.Unlock()
		return zero, ErrClosed
	}
	if timeout == 0 {
		m.mu.Unlock()
		return zero, ErrDeadline
	}
	w := m.claim()
	w.state, w.next = mailWaiting, nil
	if m.last == nil {
		m.first = w
	} else {
		m.last.next = w
	}
	m.last = w
	w.armed = m.vc.park(&w.vw, timeout)
	m.mu.Unlock()

	// The token comes from Put or Close, or from the clock when the
	// timeout fires (or the clock itself closes).
	<-w.wake

	m.mu.Lock()
	v, state := w.val, w.state
	w.val = zero
	if state == mailWaiting {
		m.unlink(w)
	}
	m.unclaim(w)
	m.mu.Unlock()
	switch {
	case state == mailGot:
		return v, nil
	case state == mailClosed, timeout < 0:
		return zero, ErrClosed
	}
	return zero, ErrDeadline
}

// claim returns the embedded waiter if no receive is using it, else a
// fresh one. Caller holds m.mu.
func (m *Mailbox[T]) claim() *mailWaiter[T] {
	w := &m.own
	if m.ownInUse {
		w = new(mailWaiter[T])
	} else {
		m.ownInUse = true
	}
	if w.wake == nil {
		w.wake = make(chan struct{}, 1)
		w.vw = vwaiter{idx: -1, wake: w.wake}
	}
	return w
}

// unclaim returns a claimed waiter. Caller holds m.mu.
func (m *Mailbox[T]) unclaim(w *mailWaiter[T]) {
	if w == &m.own {
		m.ownInUse = false
	}
}

// Close wakes every parked receiver with ErrClosed and makes later Puts
// fail. Values already queued stay receivable.
func (m *Mailbox[T]) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.closed = true
	for w := m.first; w != nil; w = w.next {
		w.state = mailClosed
		m.wake(w)
	}
	m.first, m.last = nil, nil
}

// wake releases parked receiver w, whose state is already set. A
// waiter whose timeout has fired was handed its busy slot and its token
// by the clock; every other receiver gets both here. Caller holds m.mu.
func (m *Mailbox[T]) wake(w *mailWaiter[T]) {
	if !w.armed || m.vc.unpark(&w.vw) {
		w.wake <- struct{}{}
	}
}

// unlink removes w from the parked list if it is on it. Caller holds
// m.mu.
func (m *Mailbox[T]) unlink(w *mailWaiter[T]) {
	var prev *mailWaiter[T]
	for x := m.first; x != nil; prev, x = x, x.next {
		if x != w {
			continue
		}
		if prev == nil {
			m.first = w.next
		} else {
			prev.next = w.next
		}
		if m.last == w {
			m.last = prev
		}
		return
	}
}

// grow doubles the ring (from 8) up to depth, unrolling it to start at
// index 0. Caller holds m.mu and the ring is full.
func (m *Mailbox[T]) grow() {
	size := 2 * len(m.q)
	if size == 0 {
		size = 8
	}
	if size > m.depth {
		size = m.depth
	}
	q := make([]T, size)
	for i := 0; i < m.n; i++ {
		q[i] = m.q[(m.head+i)%len(m.q)]
	}
	m.q, m.head = q, 0
}
