package registry

// Cascade slots: a registry slot whose model is a two-tier cascade
// over two *other* slots. The cascade holds slot names, not versions —
// every classification pins each tier's current version through the
// same refcounted Acquire path requests use, so reloading or swapping
// a tier mid-stream drains exactly like any other swap and the cascade
// never scores against an unmapped snapshot. Drain semantics therefore
// pin both tiers: a tier version stays open until the last in-flight
// cascade classification (and every direct request) releases it.

import (
	"fmt"

	"urllangid/internal/cascade"
	"urllangid/internal/serve"
)

// InstallCascade installs a two-tier cascade under name, routing
// between the fast and slow slots (which must already be installed).
// The cascade serves like any model — it appears in Models, resolves
// by name, exposes stats — but its engine runs without a result cache:
// a cached cascade answer could outlive a tier reload and keep serving
// the retired tier's scores, which is exactly the staleness hot-reload
// exists to prevent.
//
// Tiers are resolved by name on every classification, so reloading a
// tier slot retargets the cascade automatically. Cascades may not be
// tiers of other cascades.
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
	for _, tier := range []string{fast, slow} {
		nested, err := r.servesCascade(tier)
		if err != nil {
			return serve.ModelInfo{}, fmt.Errorf("registry: cascade %q tier: %w", name, err)
		}
		if nested {
			return serve.ModelInfo{}, fmt.Errorf("registry: cascade %q tier %q is itself a cascade; cascades do not nest", name, tier)
		}
	}
	c := cascade.New(tierSource{r: r, fast: fast, slow: slow}, cfg)
	engOpts := r.opts.Engine
	engOpts.CacheCapacity = 0
	return r.installWith(name, c, serve.ModelInfo{
		Name:  name,
		Model: fmt.Sprintf("cascade(%s→%s)", fast, slow),
		Mode:  "cascade",
	}, nil, engOpts)
}

// servesCascade reports whether the named slot's current version is a
// cascade.
func (r *Registry) servesCascade(name string) (bool, error) {
	l, err := r.Acquire(name)
	if err != nil {
		return false, err
	}
	defer l.Release()
	_, ok := l.v.engine.Predictor().(*cascade.Cascade)
	return ok, nil
}

// tierSource adapts the registry's refcounted Acquire to the cascade's
// TierProvider contract. It is a value type holding only names, so the
// cascade survives any number of tier swaps.
type tierSource struct {
	r          *Registry
	fast, slow string
}

// AcquireFast pins the fast tier's current version.
//
//urllangid:hotpath
func (t tierSource) AcquireFast() (cascade.Predictor, func(), error) {
	return t.acquire(t.fast)
}

// AcquireSlow pins the slow tier's current version.
//
//urllangid:hotpath
func (t tierSource) AcquireSlow() (cascade.Predictor, func(), error) {
	return t.acquire(t.slow)
}

// acquire pins a tier slot and hands its raw predictor plus the
// version's pre-bound release to the cascade, which calls it exactly
// once per classification. Scoring the raw predictor bypasses the
// tier's own engine: no double caching, no double stats.
//
//urllangid:hotpath
func (t tierSource) acquire(name string) (cascade.Predictor, func(), error) {
	l, err := t.r.Acquire(name) //urllangid:ignore pinpair the pre-bound release is handed to the cascade, which releases on every path (see cascade.ScoresInto)
	if err != nil {
		return nil, nil, err
	}
	return l.v.engine.Predictor(), l.v.releaseFn, nil
}
