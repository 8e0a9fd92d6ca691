package urllangid

import (
	"fmt"

	"urllangid/internal/cascade"
	"urllangid/internal/compiled"
	"urllangid/internal/registry"
	"urllangid/internal/serve"
)

// ModelInfo identifies one live model version in a Registry: serving
// name, configuration label, compiled mode, monotonically increasing
// version, content digest and backing path (for file-loaded models),
// and load time.
type ModelInfo = serve.ModelInfo

// RegistryOptions configures the serving engine a Registry builds for
// each installed model version. The zero value serves with GOMAXPROCS
// workers and caching disabled, like a zero Batcher.
type RegistryOptions struct {
	// Workers bounds each model engine's batch parallelism
	// (default GOMAXPROCS).
	Workers int
	// CacheCapacity is each model engine's result-cache budget in
	// entries; 0 disables caching. Every installed version gets a fresh
	// cache — results from a replaced model are never served.
	CacheCapacity int
}

// Registry is a versioned, hot-reloadable collection of named serving
// models. Where a Batcher wraps one fixed model, a Registry holds many
// under names, and any slot can be atomically replaced — by a newly
// trained model (Install), or by re-reading a redeployed model file
// (Reload) — with zero downtime: requests in flight when a swap lands
// finish on the version they started on, and that version's file is
// unmapped only after the last one finishes. New requests route to the
// new version immediately.
//
//	reg := urllangid.NewRegistry(urllangid.RegistryOptions{CacheCapacity: 1 << 16})
//	defer reg.Close()
//	reg.Load("nb", "nb.model")          // file-backed: Reload re-reads it
//	reg.Install("exp", experimental)    // programmatic: swap by Install
//	r, err := reg.Classify("nb", url)   // or "" for the default model
//
// The first name installed becomes the default, used when a name is
// empty. Classify on a single model stays allocation-free: the
// registry lookup is lock-light and alloc-free, and the engine
// underneath scores through the same zero-allocation compiled path as
// a Snapshot. A Registry is safe for concurrent use; Close it when
// done to unmap its model files. cmd/urllangid-serve exposes
// exactly this registry over HTTP, with ?model= routing and
// POST /v1/models/{name}/reload.
type Registry struct {
	reg *registry.Registry
}

// NewRegistry builds an empty registry; load models into it with Load
// or Install.
func NewRegistry(opts RegistryOptions) *Registry {
	return &Registry{reg: registry.New(registry.Options{
		Engine: serve.Options{
			Workers:       opts.Workers,
			CacheCapacity: opts.CacheCapacity,
		},
	})}
}

// Load reads the model file at path — either kind; trained classifiers
// are compiled on the way in — and installs it under name, atomically
// replacing any version already serving that name. The returned info
// carries the file's content digest; Reload(name) re-reads the same
// path later and swaps only if that digest changed.
func (r *Registry) Load(name, path string) (ModelInfo, error) {
	info, err := r.reg.LoadFile(name, path)
	if err != nil {
		return info, fmt.Errorf("urllangid: %w", err)
	}
	return info, nil
}

// Install installs a model under name, atomically replacing any
// version already serving that name. Trained classifiers are compiled
// first (results are bit-identical, scoring is severalfold faster);
// Batchers unwrap to the model they wrap. Installed slots have no
// backing file and therefore cannot be Reloaded — swap them by calling
// Install again.
func (r *Registry) Install(name string, m Model) (ModelInfo, error) {
	var info ModelInfo
	var err error
	switch v := m.(type) {
	case *Classifier:
		snap := compiled.FromSystem(v.sys)
		info, err = r.reg.Install(name, snap, snap.Describe(), snap.Mode())
	case *Snapshot:
		info, err = r.reg.Install(name, v.snap, v.snap.Describe(), v.snap.Mode())
	case *Batcher:
		return r.Install(name, v.model)
	default:
		info, err = r.reg.Install(name, modelPredictor{m}, m.Describe(), "")
	}
	if err != nil {
		return info, fmt.Errorf("urllangid: %w", err)
	}
	return info, nil
}

// CascadeConfig parameterises an InstallCascade slot.
type CascadeConfig struct {
	// Threshold is the escalation cut. When the fast tier carries a
	// fitted calibration (compile -calibrate) it is the minimum
	// calibrated probability the fast answer must reach to stand; for
	// an uncalibrated fast tier it is compared against the raw score
	// margin instead. <= 0 selects the default (0.9).
	Threshold float64
	// Confusable lists unordered language pairs that escalate to the
	// slow tier unconditionally whenever they are the fast tier's top
	// two. Nil selects the built-in Romance pairs (fr/it, fr/es,
	// es/it); an explicit empty slice disables confusable routing.
	Confusable [][2]Language
}

// InstallCascade installs a two-tier cascade under name: the fast slot
// answers every URL, and low-confidence or confusable answers are
// re-scored by the slow slot. Both tiers must already be installed;
// installing or reloading one swaps in a new cascade version, which
// the next call gets. The cascade serves like any model — Classify by
// name, observe per-tier stats over HTTP — and its non-escalating path
// stays allocation-free. Cascades cannot be tiers of other cascades.
func (r *Registry) InstallCascade(name, fast, slow string, cfg CascadeConfig) (ModelInfo, error) {
	info, err := r.reg.InstallCascade(name, fast, slow, cascade.Config{
		Threshold:  cfg.Threshold,
		Confusable: cfg.Confusable,
	})
	if err != nil {
		return info, fmt.Errorf("urllangid: %w", err)
	}
	return info, nil
}

// Reload re-reads the named model's backing file ("" selects the
// default). When the file content is unchanged it reports changed
// false and swaps nothing; otherwise the new model is installed and
// in-flight requests drain on the old engine. Programmatically
// Installed models are not reloadable.
func (r *Registry) Reload(name string) (info ModelInfo, changed bool, err error) {
	info, changed, err = r.reg.Reload(name)
	if err != nil {
		return info, changed, fmt.Errorf("urllangid: %w", err)
	}
	return info, changed, nil
}

// Models lists the live model versions, default first, then in
// first-install order.
func (r *Registry) Models() []ModelInfo { return r.reg.Models() }

// Classify classifies one URL with the named model ("" selects the
// default). On a compiled model the call performs no heap allocations,
// registry lookup included. It fails only when the name is unknown or
// the registry is empty or closed.
//
//urllangid:hotpath
func (r *Registry) Classify(name, rawURL string) (Result, error) {
	l, err := r.reg.Acquire(name)
	if err != nil {
		return Result{}, err
	}
	defer l.Release()
	return l.Engine().Classify(rawURL).Result, nil
}

// ClassifyBatch classifies many URLs in parallel with the named model
// ("" selects the default), one Result per URL in input order. With
// CacheCapacity set, a URL seen before — in an earlier batch, or
// earlier in this one once its first copy is scored — is served from
// the model's cache. The whole batch runs on one model version: a swap
// landing mid-batch takes effect for the next call.
func (r *Registry) ClassifyBatch(name string, urls []string) ([]Result, error) {
	l, err := r.reg.Acquire(name)
	if err != nil {
		return nil, err
	}
	defer l.Release()
	return collapseBatch(l.Engine().ClassifyBatch(urls)), nil
}

// Stats returns the named model's serving metrics ("" selects the
// default). Metrics are per version: they reset when a swap or reload
// installs a new engine.
func (r *Registry) Stats(name string) (BatcherStats, error) {
	l, err := r.reg.Acquire(name)
	if err != nil {
		return BatcherStats{}, err
	}
	defer l.Release()
	return l.Engine().StatsSnapshot(), nil
}

// Close retires every model: each model file is unmapped as soon as
// its in-flight requests finish. Classify fails afterwards. Close is
// idempotent.
func (r *Registry) Close() error { return r.reg.Close() }
