package registry

// Cascade slots: a slot whose model is a two-tier cascade over two
// other slots. A cascade version leases the tier versions current when
// it is built and releases them once it has drained; installing or
// reloading a tier swaps a new version into every cascade over it.

import (
	"fmt"

	"urllangid/internal/cascade"
	"urllangid/internal/serve"
)

// cascadeSpec is what a cascade slot is built from.
type cascadeSpec struct {
	fast, slow string
	cfg        cascade.Config
}

// InstallCascade installs a two-tier cascade under name over the fast
// and slow slots, which must already be installed. It serves like any
// model, but its engine runs without a result cache: a cached answer
// could outlive a tier reload. Installing or reloading a tier swaps in
// a new cascade version over the tier's new version. A cascade may not
// be a tier, and a tier of a cascade may not become one.
func (r *Registry) InstallCascade(name, fast, slow string, cfg cascade.Config) (serve.ModelInfo, error) {
	if fast == "" || slow == "" {
		return serve.ModelInfo{}, fmt.Errorf("registry: cascade %q needs both tier names", name)
	}
	if name == fast || name == slow {
		return serve.ModelInfo{}, fmt.Errorf("registry: cascade %q cannot be its own tier", name)
	}
	if fast == slow {
		return serve.ModelInfo{}, fmt.Errorf("registry: cascade %q tiers must differ, both are %q", name, fast)
	}
	if over := r.cascadesOver(name); len(over) > 0 {
		return serve.ModelInfo{}, fmt.Errorf("registry: %q is a tier of cascade %q; cascades do not nest", name, over[0].name)
	}
	spec := &cascadeSpec{fast: fast, slow: slow, cfg: cfg}
	// A trial lease checks the tiers before the slot is created, so a
	// bad tier leaves no empty slot behind.
	tiers, err := r.leaseTiers(spec)
	if err != nil {
		return serve.ModelInfo{}, fmt.Errorf("registry: cascade %q tier: %w", name, err)
	}
	tiers[0].Release()
	tiers[1].Release()
	return r.swapSlot(name, func(s *slot) (serve.ModelInfo, error) {
		// The spec goes in before the tiers are leased, so a tier swap
		// that lands after the lease finds this cascade to rebuild.
		prev := s.casc.Swap(spec)
		info, err := r.swapInCascade(s, spec)
		if err != nil {
			s.casc.Store(prev)
		}
		return info, err
	})
}

// rebuildCascades swaps a new version into every cascade over tier,
// after the tier's own swap and outside its mu. Each rebuild leases the
// tiers under the cascade slot's mu, so the last one sees the last swap
// of either tier.
func (r *Registry) rebuildCascades(tier string) {
	for _, s := range r.cascadesOver(tier) {
		s.mu.Lock()
		if spec := s.casc.Load(); spec != nil && !r.closed.Load() {
			// A lease fails only as the registry closes; the running
			// version then stays until Close retires it.
			_, _ = r.swapInCascade(s, spec)
		}
		s.mu.Unlock()
	}
}

// cascadesOver returns the slots serving a cascade over tier.
func (r *Registry) cascadesOver(tier string) []*slot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var over []*slot
	for _, s := range r.slots {
		if spec := s.casc.Load(); spec != nil && (spec.fast == tier || spec.slow == tier) {
			over = append(over, s)
		}
	}
	return over
}

// swapInCascade swaps in a cascade over the raw predictors (not the
// engines: no double counting or caching) of the current versions of
// spec's tiers; its closer releases their leases. The caller holds s.mu.
func (r *Registry) swapInCascade(s *slot, spec *cascadeSpec) (serve.ModelInfo, error) {
	tiers, err := r.leaseTiers(spec)
	if err != nil {
		return serve.ModelInfo{}, err
	}
	tiers[0].v.holds.Add(1)
	tiers[1].v.holds.Add(1)
	engOpts := r.opts.Engine
	engOpts.CacheCapacity = 0
	return s.swapIn(cascade.New(tiers[0].v.engine.Predictor(), tiers[1].v.engine.Predictor(), spec.cfg), serve.ModelInfo{
		Name:  s.name,
		Model: fmt.Sprintf("cascade(%s→%s)", spec.fast, spec.slow),
		Mode:  "cascade",
	}, func() error {
		for _, l := range tiers {
			l.v.holds.Add(-1)
			l.Release()
		}
		return nil
	}, engOpts), nil
}

// leaseTiers pins the current versions of spec's fast and slow tiers,
// neither of which may be a cascade.
func (r *Registry) leaseTiers(spec *cascadeSpec) ([2]Lease, error) {
	var tiers [2]Lease
	for i, name := range [2]string{spec.fast, spec.slow} {
		l, err := r.Acquire(name) //urllangid:ignore pinpair the caller releases a tier lease: at once after a trial, or in the closer of the cascade version built over it
		if err == nil {
			tiers[i] = l
			if _, nested := l.v.engine.Predictor().(*cascade.Cascade); nested {
				err = fmt.Errorf("%q is itself a cascade; cascades do not nest", name)
			}
		}
		if err != nil {
			for _, l := range tiers {
				if l.v != nil {
					l.Release()
				}
			}
			return [2]Lease{}, err
		}
	}
	return tiers, nil
}
