package ue

import "testing"

func TestIdlePoolLifecycle(t *testing.T) {
	p := NewIdlePool(4)
	if p.Cap() != 4 || p.Live() != 0 {
		t.Fatalf("fresh pool: cap=%d live=%d", p.Cap(), p.Live())
	}
	// Fresh allocation hands out ascending indices.
	for want := 0; want < 4; want++ {
		i, ok := p.Alloc()
		if !ok || i != want {
			t.Fatalf("Alloc = %d,%v want %d,true", i, ok, want)
		}
		if p.State(i) != IdleParked {
			t.Fatalf("state after alloc = %v", p.State(i))
		}
	}
	if _, ok := p.Alloc(); ok {
		t.Fatal("Alloc succeeded on a full pool")
	}
	p.StartAttach(2)
	p.Register(2, 0xBEEF, 0x0A00002A)
	if p.State(2) != IdleAttached || p.GUTI(2) != 0xBEEF || p.IP(2) != 0x0A00002A {
		t.Fatalf("registered slot: state=%v guti=%#x ip=%#x", p.State(2), p.GUTI(2), p.IP(2))
	}
	p.TrackingAreaUpdate(2)
	p.TrackingAreaUpdate(2)
	if p.TAUCount(2) != 2 {
		t.Fatalf("TAUCount = %d", p.TAUCount(2))
	}
	rec := p.Promote(2)
	if rec != (PromoteRecord{Index: 2, GUTI: 0xBEEF, IP: 0x0A00002A, TAUs: 2}) {
		t.Fatalf("promote record = %+v", rec)
	}
	if p.State(2) != IdlePromoted {
		t.Fatalf("state after promote = %v", p.State(2))
	}
	// Promotion holds the slot; Release frees it for reuse (LIFO).
	if p.Live() != 4 {
		t.Fatalf("live after promote = %d", p.Live())
	}
	p.Release(2)
	p.Release(2) // double release is a no-op
	if p.Live() != 3 {
		t.Fatalf("live after release = %d", p.Live())
	}
	i, ok := p.Alloc()
	if !ok || i != 2 {
		t.Fatalf("realloc = %d,%v want 2,true", i, ok)
	}
	if p.GUTI(2) != 0 || p.TAUCount(2) != 0 {
		t.Fatal("recycled slot kept stale identity")
	}
}

func TestIdleSlotBytesBudget(t *testing.T) {
	// The compact promise: tens of bytes per idle UE. If a new field
	// pushes the slot past this, the E13 B/UE budget (slot + one parked
	// wheel key, gated in internal/exp) is at risk — grow deliberately.
	if IdleSlotBytes > 32 {
		t.Fatalf("IdleSlotBytes = %d, want ≤ 32", IdleSlotBytes)
	}
}
