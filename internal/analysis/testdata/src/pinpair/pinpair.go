// Package pinpair is the golden corpus for the pinpair analyzer: the
// one Acquire shape the lease contract accepts, a waived hand-off, and
// the shapes it rejects because some path can leak the lease.
package pinpair

import "errors"

type engine struct{ n int }

// Lease mirrors the registry lease: Acquire's first result, released
// exactly once.
type Lease struct{ e *engine }

func (l Lease) Release()        {}
func (l Lease) Engine() *engine { return l.e }

type Reg struct{}

func (r *Reg) Acquire(name string) (Lease, error) {
	if name == "" {
		return Lease{}, errors.New("unknown model")
	}
	return Lease{e: &engine{}}, nil
}

// deferred is the accepted shape: bind, return on error, defer the
// release.
func deferred(r *Reg) (int, error) {
	l, err := r.Acquire("m")
	if err != nil {
		return 0, err
	}
	defer l.Release()
	return l.Engine().n, nil
}

// closureDeferred and perMode: the shape holds in a func literal and in
// a case clause too.
func closureDeferred(r *Reg) func() int {
	return func() int {
		l, err := r.Acquire("m")
		if err != nil {
			return 0
		}
		defer l.Release()
		return l.Engine().n
	}
}

func perMode(r *Reg, mode int) int {
	switch mode {
	case 1:
		l, err := r.Acquire("m")
		if err != nil {
			return 0
		}
		defer l.Release()
		return l.Engine().n
	}
	return 0
}

func pinned(r *Reg) *engine {
	l, _ := r.Acquire("m") //urllangid:ignore pinpair pinned for process lifetime by design, the test corpus documents the shape
	return l.Engine()
}

func leak(r *Reg) int {
	l, err := r.Acquire("m") // want "in leak must be bound as"
	if err != nil {
		return 0
	}
	return l.Engine().n
}

func discard(r *Reg) {
	_, _ = r.Acquire("m") // want "in discard must be bound as"
}

// branchLeak releases on the happy path, but the flaky early return
// leaks.
func branchLeak(r *Reg, flaky bool) int {
	l, err := r.Acquire("m") // want "in branchLeak must be bound as"
	if err != nil {
		return 0
	}
	if flaky {
		return 0
	}
	l.Release()
	return 1
}

// loopReturn leaks through the early return inside the loop.
func loopReturn(r *Reg, xs []int) int {
	l, _ := r.Acquire("m") // want "in loopReturn must be bound as"
	for _, x := range xs {
		if x < 0 {
			return x
		}
	}
	l.Release()
	return 0
}

func closureLeak(r *Reg) func() int {
	return func() int {
		l, err := r.Acquire("m") // want "in closureLeak must be bound as"
		if err != nil {
			return 0
		}
		return l.Engine().n
	}
}

// twoTierLeak holds one lease across a second Acquire and leaks the
// first on the second's paths; the second is in shape.
func twoTierLeak(r *Reg, escalate bool) int {
	fast, err := r.Acquire("fast") // want "in twoTierLeak must be bound as"
	if err != nil {
		return 0
	}
	if !escalate {
		n := fast.Engine().n
		fast.Release()
		return n
	}
	slow, err := r.Acquire("slow")
	if err != nil {
		return 0
	}
	defer slow.Release()
	return slow.Engine().n
}

// twoTierErrLeak releases both leases on its answer paths but drops the
// second when the escalated answer fails.
func twoTierErrLeak(r *Reg, escalate, bad bool) (int, error) {
	fast, err := r.Acquire("fast") // want "in twoTierErrLeak must be bound as"
	if err != nil {
		return 0, err
	}
	if !escalate {
		n := fast.Engine().n
		fast.Release()
		return n, nil
	}
	slow, err := r.Acquire("slow") // want "in twoTierErrLeak must be bound as"
	if err != nil {
		n := fast.Engine().n
		fast.Release()
		return n, nil
	}
	if bad {
		fast.Release()
		return 0, errors.New("escalation failed")
	}
	n := slow.Engine().n
	slow.Release()
	fast.Release()
	return n, nil
}

// The shapes below release on every path, but not by construction:
// the next edit to them can leak, so the rule rejects them too.

// released releases without defer, two lines after a check.
func released(r *Reg) bool {
	l, err := r.Acquire("m") // want "in released must be bound as"
	if err != nil {
		return false
	}
	ok := l.Engine() != nil
	l.Release()
	return ok
}

func unchecked(r *Reg) int {
	l, _ := r.Acquire("m") // want "in unchecked must be bound as"
	defer l.Release()
	return l.Engine().n
}

func guardInverse(r *Reg) int {
	l, err := r.Acquire("m") // want "in guardInverse must be bound as"
	if err == nil {
		defer l.Release()
		return l.Engine().n
	}
	return 0
}

func deferredClosure(r *Reg) int {
	l, err := r.Acquire("m") // want "in deferredClosure must be bound as"
	if err != nil {
		return 0
	}
	defer func() { l.Release() }()
	return l.Engine().n
}

// returned hands the lease itself to the caller.
func returned(r *Reg) (Lease, error) {
	return r.Acquire("m") // want "in returned must be bound as"
}
