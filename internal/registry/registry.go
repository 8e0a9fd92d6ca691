// Package registry is the versioned model registry behind multi-model
// serving and zero-downtime hot-reload: named slots, each holding an
// atomically swappable (predictor, engine, stats, metadata) bundle.
//
// The paper's deployment loop — retrain per Algorithm×FeatureSet,
// redeploy, repeat — collides with a serving plane whose engine is
// welded in at construction: shipping a retrained model would mean
// restarting the process and dropping in-flight traffic. The registry
// turns models into versioned, swappable resources instead. Each slot's
// current version is an atomic pointer; Swap installs a new version in
// one pointer write, and the old version's backing file is unmapped
// only when its last in-flight holder releases it (refcounted epoch
// release), so a swap never fails a request or cuts a stream. Engines
// own no goroutines, so nothing else needs tearing down.
//
// Lifecycle of one slot version:
//
//	LoadFile/Install ─→ current ──(Swap/Reload)──→ draining ──(last Release)──→ unmapped
//	                       │
//	                 Acquire/Release pins it for one request
//
// The refcount starts at 1 — the registry's own reference — and Swap
// drops that reference after replacing the pointer. Acquire increments
// and then re-checks the pointer: if a swap won the race, the loser
// releases its stale reference and retries on the new version, so no
// request ever runs on a version that was already retired before it
// arrived, and the model underneath an acquired lease is never
// unmapped. The loser's reference can take a retired count back
// through zero; a flag keeps the version's closer to one run.
//
// Reload re-opens a slot's backing file, compares content digests (the
// modelfile metadata digest) and swaps only when the content actually
// changed, making SIGHUP-style "reload everything" handlers free when
// nothing was redeployed.
//
// The registry implements serve.Resolver, which is how the HTTP layer
// resolves an engine per request instead of capturing one at handler
// construction.
package registry

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"urllangid/internal/compiled"
	"urllangid/internal/modelfile"
	"urllangid/internal/serve"
)

// Options configures a Registry.
type Options struct {
	// Engine is the template every slot's serving engine is built from
	// (workers, cache capacity, stats). Each installed version gets its
	// own engine — and so its own cache and stats — from this template.
	Engine serve.Options
}

// Registry holds named model slots. It is safe for concurrent use:
// Acquire/Classify run lock-free against slot swaps, and installs,
// reloads and Close serialise per slot.
type Registry struct {
	opts   Options
	closed atomic.Bool

	mu    sync.RWMutex
	slots map[string]*slot
	names []string // insertion order; names[0] is the default
}

// slot is one serving name. cur flips atomically between versions;
// admin operations (install, reload, close) serialise on mu.
type slot struct {
	name string
	mu   sync.Mutex
	// ver is the last installed version number — the slot's lifetime swap
	// count. Writes happen under mu; the atomic load lets SlotStates
	// observe it without taking install locks mid-scrape.
	ver atomic.Int64
	cur atomic.Pointer[version]
	// casc is set, under mu, while the slot serves a cascade.
	casc atomic.Pointer[cascadeSpec]
}

// version is one installed model epoch: the engine serving it, its
// identity, and the refcount that keeps its backing storage mapped
// while anyone still holds it. refs starts at 1 for the registry's own
// reference.
type version struct {
	engine *serve.Engine
	info   serve.ModelInfo
	refs   atomic.Int64
	// holds counts the refs held by cascade versions built over this
	// one, which are not request pins.
	holds atomic.Int64
	// releaseFn is release pre-bound at install time, so Resolve hands
	// it out per request without allocating a fresh method value.
	releaseFn func()
	// close releases the model's backing storage — the memory mapping
	// under a flat-loaded snapshot — after the version has drained. Nil
	// for programmatic installs. closed is set by the release that
	// retires the version.
	close  func() error
	closed atomic.Bool
}

// release drops one reference; the last one out runs the version's
// closer, so the mapping under a flat snapshot is unmapped only after
// no request can touch it again. The count can reach zero more than
// once: an acquirer that loaded the pointer just before a swap bumps
// the retired count from zero, detects the pointer change, and
// releases again — it never uses the model. closed turns that second
// zero into a no-op, so the closer runs exactly once.
func (v *version) release() {
	if v.refs.Add(-1) == 0 && !v.closed.Swap(true) && v.close != nil {
		v.close()
	}
}

// The registry is the serving plane's model source: the HTTP layer
// resolves engines through it per request.
var _ serve.Resolver = (*Registry)(nil)

// New builds an empty registry. Load models into it with LoadFile or
// Install; the first name becomes the default.
func New(opts Options) *Registry {
	return &Registry{opts: opts, slots: make(map[string]*slot)}
}

// Lease is a pinned model version: the engine it exposes stays usable —
// across any number of swaps — until Release. The zero Lease is
// invalid; leases come from Acquire. Acquire and Release are
// allocation-free, which keeps the registry off the classify hot
// path's allocation budget.
type Lease struct {
	v *version
}

// Engine returns the pinned version's serving engine.
//
//urllangid:hotpath
func (l Lease) Engine() *serve.Engine { return l.v.engine }

// Info returns the pinned version's identity.
//
//urllangid:hotpath
func (l Lease) Info() serve.ModelInfo { return l.v.info }

// Release lets go of the version. The last holder of a swapped-out
// version unmaps its backing file. Release must be called exactly once.
//
//urllangid:hotpath
func (l Lease) Release() { l.v.release() }

// Acquire pins the current version of the named slot ("" selects the
// default). The returned lease keeps the version's model mapped until
// Release, even if the slot is swapped or the registry closed in
// between.
//
//urllangid:hotpath
func (r *Registry) Acquire(name string) (Lease, error) {
	r.mu.RLock()
	if name == "" && len(r.names) > 0 {
		name = r.names[0]
	}
	s := r.slots[name]
	r.mu.RUnlock()
	if s == nil {
		if name == "" {
			return Lease{}, serve.ErrNoModels
		}
		return Lease{}, fmt.Errorf("%w: %q", serve.ErrUnknownModel, name) //urllangid:ignore hotpathalloc cold error path, unknown model name is a caller bug
	}
	for {
		v := s.cur.Load()
		if v == nil {
			return Lease{}, fmt.Errorf("model %q: %w", name, serve.ErrNoModels) //urllangid:ignore hotpathalloc cold error path, a closed or empty slot ends the request anyway
		}
		v.refs.Add(1)
		if s.cur.Load() == v {
			return Lease{v: v}, nil
		}
		// A swap won the race between Load and Add: our reference may be
		// on a retired version. Put it back and retry on the new one.
		v.release()
	}
}

// Resolve implements serve.Resolver over Acquire.
//
//urllangid:hotpath
func (r *Registry) Resolve(name string) (*serve.Engine, serve.ModelInfo, func(), error) {
	l, err := r.Acquire(name) //urllangid:ignore pinpair the returned releaseFn is the lease's pre-bound Release, handed to the HTTP caller to invoke exactly once
	if err != nil {
		return nil, serve.ModelInfo{}, nil, err
	}
	return l.v.engine, l.v.info, l.v.releaseFn, nil
}

// Models lists the current version of every slot, default first, then
// the remaining slots in the order they were first installed. It
// implements serve.Resolver.
func (r *Registry) Models() []serve.ModelInfo {
	r.mu.RLock()
	names := make([]string, len(r.names))
	copy(names, r.names)
	slots := make([]*slot, 0, len(names))
	for _, n := range names {
		slots = append(slots, r.slots[n])
	}
	r.mu.RUnlock()
	out := make([]serve.ModelInfo, 0, len(slots))
	for _, s := range slots {
		if v := s.cur.Load(); v != nil {
			out = append(out, v.info)
		}
	}
	return out
}

// Names returns the slot names, default first.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, len(r.names))
	copy(names, r.names)
	return names
}

// SlotStates implements serve.Resolver: every slot's readiness,
// lifetime swap count and live request pins, default first. A slot
// whose current pointer is nil — mid-first-install, or retired by
// Close — reports not ready, which is what turns the readiness probe
// red while a deploy is in flight.
func (r *Registry) SlotStates() []serve.SlotState {
	r.mu.RLock()
	slots := make([]*slot, 0, len(r.names))
	for _, n := range r.names {
		slots = append(slots, r.slots[n])
	}
	r.mu.RUnlock()
	out := make([]serve.SlotState, 0, len(slots))
	for _, s := range slots {
		st := serve.SlotState{Swaps: s.ver.Load()}
		if v := s.cur.Load(); v != nil {
			st.Model = v.info
			st.Ready = true
			// refs includes the registry's own reference and the
			// cascades' standing holds; anything above that is a
			// request-held lease.
			if pins := v.refs.Load() - 1 - v.holds.Load(); pins > 0 {
				st.Pins = pins
			}
		} else {
			st.Model = serve.ModelInfo{Name: s.name}
		}
		out = append(out, st)
	}
	return out
}

// LoadFile opens the model file at path — either kind, trained
// classifiers are compiled on the way in — and installs it under name,
// atomically replacing any version already serving that name. The
// slot remembers the path, so Reload can re-open it later.
func (r *Registry) LoadFile(name, path string) (serve.ModelInfo, error) {
	snap, digest, err := readModelFile(path)
	if err != nil {
		return serve.ModelInfo{}, err
	}
	info, err := r.install(name, snap, serve.ModelInfo{
		Name:   name,
		Model:  snap.Describe(),
		Mode:   snap.Mode(),
		Digest: digest,
		Path:   path,
	}, snap.Close)
	if err != nil {
		snap.Close()
	}
	return info, err
}

// Install installs a predictor programmatically (no backing file, so
// the slot is not reloadable) under name, atomically replacing any
// version already serving that name. label and mode describe the model
// the way a file's metadata block would.
func (r *Registry) Install(name string, p serve.Predictor, label, mode string) (serve.ModelInfo, error) {
	return r.install(name, p, serve.ModelInfo{
		Name:  name,
		Model: label,
		Mode:  mode,
	}, nil)
}

// install builds an engine for p and swaps it in as the slot's next
// version. The old version starts draining: in-flight leases keep
// using it, and the last Release runs closer (when non-nil) to free
// the model's backing storage.
func (r *Registry) install(name string, p serve.Predictor, info serve.ModelInfo, closer func() error) (serve.ModelInfo, error) {
	return r.swapSlot(name, func(s *slot) (serve.ModelInfo, error) {
		s.casc.Store(nil)
		return s.swapIn(p, info, closer, r.opts.Engine), nil
	})
}

// swapSlot runs swap under the mu of the named slot, created on first
// install, and then rebuilds the cascades over the slot.
func (r *Registry) swapSlot(name string, swap func(*slot) (serve.ModelInfo, error)) (serve.ModelInfo, error) {
	if name == "" {
		return serve.ModelInfo{}, fmt.Errorf("registry: empty model name")
	}
	r.mu.Lock()
	if r.closed.Load() {
		r.mu.Unlock()
		return serve.ModelInfo{}, fmt.Errorf("registry: closed")
	}
	s := r.slots[name]
	if s == nil {
		s = &slot{name: name}
		r.slots[name] = s
		r.names = append(r.names, name)
	}
	r.mu.Unlock()

	s.mu.Lock()
	// Close may have drained this slot between the registry check and
	// here; installing into a closed registry would leak the model's
	// mapping.
	if r.closed.Load() {
		s.mu.Unlock()
		return serve.ModelInfo{}, fmt.Errorf("registry: closed")
	}
	info, err := swap(s)
	s.mu.Unlock()
	if err == nil {
		r.rebuildCascades(name)
	}
	return info, err
}

// swapIn numbers info as the slot's next version, builds its engine
// and makes it current; the replaced version starts draining. The
// caller holds s.mu.
func (s *slot) swapIn(p serve.Predictor, info serve.ModelInfo, closer func() error, engOpts serve.Options) serve.ModelInfo {
	info.Version = s.ver.Add(1)
	info.LoadedAt = time.Now()
	v := &version{engine: serve.New(p, engOpts), info: info, close: closer}
	v.releaseFn = v.release
	v.refs.Store(1)
	if old := s.cur.Swap(v); old != nil {
		old.release()
	}
	return info
}

// Reload re-opens the named slot's backing file. If the file's content
// digest matches the running version's, nothing happens and changed is
// false; otherwise the new model is verified and swapped in, the old
// version drains, and the cascades over the slot are rebuilt. A file
// that fails to open or verify leaves the running version serving.
// Slots installed programmatically (no path) are not reloadable.
func (r *Registry) Reload(name string) (serve.ModelInfo, bool, error) {
	r.mu.RLock()
	if name == "" && len(r.names) > 0 {
		name = r.names[0]
	}
	s := r.slots[name]
	r.mu.RUnlock()
	if s == nil {
		return serve.ModelInfo{}, false, fmt.Errorf("%w: %q", serve.ErrUnknownModel, name)
	}
	info, changed, err := r.reload(s)
	if changed {
		r.rebuildCascades(name)
	}
	return info, changed, err
}

// reload is Reload's work on the slot, under its mu.
func (r *Registry) reload(s *slot) (serve.ModelInfo, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.cur.Load()
	if cur == nil || r.closed.Load() {
		return serve.ModelInfo{}, false, fmt.Errorf("model %q: %w", s.name, serve.ErrNoModels)
	}
	if cur.info.Path == "" {
		return cur.info, false, fmt.Errorf("%q: %w", s.name, serve.ErrNotReloadable)
	}
	// Cheap probe first: the content digest is recoverable from the
	// header and metadata alone — for a v3 flat file that is one small
	// read of the section directory, no mapping and no payload traffic —
	// so the no-change case costs microseconds regardless of model size.
	// Any probe failure falls through to the full open, which reports
	// the real error.
	if fi, err := modelfile.InspectFile(cur.info.Path); err == nil && fi.Meta.Digest == cur.info.Digest {
		return cur.info, false, nil
	}
	snap, digest, err := readModelFile(cur.info.Path)
	if err != nil {
		return cur.info, false, fmt.Errorf("reloading %q: %w", s.name, err)
	}
	if digest == cur.info.Digest {
		snap.Close()
		return cur.info, false, nil
	}
	// Scoring a corrupt payload panics, on an engine helper goroutine
	// that nothing recovers: check the digests before the swap.
	if err := snap.Verify(); err != nil {
		snap.Close()
		return cur.info, false, fmt.Errorf("reloading %q: %w", s.name, err)
	}
	return s.swapIn(snap, serve.ModelInfo{
		Name:   s.name,
		Model:  snap.Describe(),
		Mode:   snap.Mode(),
		Digest: digest,
		Path:   cur.info.Path,
	}, snap.Close, r.opts.Engine), true, nil
}

// Close retires every slot: each current version loses the registry's
// reference, so its file is unmapped as soon as in-flight leases drain
// (immediately, when there are none). Acquire fails afterwards; Close
// is idempotent.
func (r *Registry) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	r.mu.RLock()
	slots := make([]*slot, 0, len(r.slots))
	for _, s := range r.slots {
		slots = append(slots, s)
	}
	r.mu.RUnlock()
	for _, s := range slots {
		s.mu.Lock()
		if old := s.cur.Swap(nil); old != nil {
			old.release()
		}
		s.mu.Unlock()
	}
	return nil
}

// readModelFile loads a model file of either kind as a compiled
// snapshot plus its content digest, the file's metadata digest.
// Snapshot files come back memory-mapped; the returned snapshot's Close
// releases the mapping (and is a no-op for a compiled classifier).
func readModelFile(path string) (*compiled.Snapshot, string, error) {
	om, err := modelfile.OpenPath(path)
	if err != nil {
		return nil, "", err
	}
	snap := om.Snap
	if snap == nil {
		snap = compiled.FromSystem(om.Sys)
	}
	return snap, om.Meta.Digest, nil
}
