package serve

import (
	"errors"
	"fmt"
	"time"
)

// ModelInfo identifies one live model version behind a Resolver: what
// is being served under a name right now. The registry stamps a fresh
// ModelInfo on every load, swap and reload, so Version and LoadedAt
// move the instant a new model is installed while in-flight requests
// drain on the old engine.
type ModelInfo struct {
	// Name is the serving name requests route on (?model=name).
	Name string `json:"name"`
	// Model is the configuration label, e.g. "NB/word".
	Model string `json:"model"`
	// Mode is the compiled-mode string ("linear", "custom", "dtree",
	// "knn", "tld"); empty when the predictor is not a compiled
	// snapshot.
	Mode string `json:"mode,omitempty"`
	// Version counts installs into this slot, starting at 1. It is
	// monotonic per name: every successful swap or effective reload
	// bumps it.
	Version int64 `json:"version"`
	// Digest is the model's content identity, the model file's SHA-256
	// metadata digest. Empty for models installed programmatically
	// rather than from a file.
	Digest string `json:"digest,omitempty"`
	// Path is the backing model file, when there is one; Reload re-opens
	// it.
	Path string `json:"path,omitempty"`
	// LoadedAt is when this version was installed.
	LoadedAt time.Time `json:"loaded_at"`
}

// Resolver failure modes the HTTP layer maps onto status codes.
var (
	// ErrUnknownModel reports a name no slot serves.
	ErrUnknownModel = errors.New("unknown model")
	// ErrNoModels reports a resolver with nothing loaded (or already
	// closed) — the serving plane is up but cannot answer.
	ErrNoModels = errors.New("no models loaded")
	// ErrNotReloadable reports a reload request against a model that has
	// no backing file to re-open.
	ErrNotReloadable = errors.New("model has no backing file to reload")
)

// Resolver hands the HTTP layer an engine per request instead of one
// frozen at handler construction — the seam that makes hot-reload
// possible. Implementations: the model registry (multi-model, swappable)
// and Static (one fixed engine, for tests and single-model embeddings).
type Resolver interface {
	// Resolve pins the engine currently serving name ("" selects the
	// default model) and returns it with its identity and a release
	// function. The caller must call release when done with the engine —
	// a swapped-out version's backing file is unmapped only after its
	// last holder releases, which is exactly the zero-downtime drain.
	Resolve(name string) (*Engine, ModelInfo, func(), error)
	// Models lists the live model versions, default first.
	Models() []ModelInfo
	// Reload re-opens the named model's backing file, atomically
	// swapping the new version in. It reports the resulting info and
	// whether anything changed (an unchanged file digest is a no-op).
	Reload(name string) (ModelInfo, bool, error)
}

// SlotState is one serving slot's readiness and lifecycle view, shaped
// for the readiness probe and the metrics scrape rather than for
// request routing (which uses Resolve).
type SlotState struct {
	// Model identifies the version currently serving the slot. When
	// Ready is false it carries at least the slot Name.
	Model ModelInfo `json:"model"`
	// Ready reports whether the slot can answer requests right now. A
	// registry slot is briefly not ready mid-install, before its first
	// version lands or after Close retires it.
	Ready bool `json:"ready"`
	// Swaps counts versions ever installed into the slot — the
	// hot-reload churn figure.
	Swaps int64 `json:"swaps"`
	// Pins counts requests currently pinning the live version (leases
	// held beyond the owner's own reference).
	Pins int64 `json:"pins"`
}

// StateReporter is the optional Resolver extension behind GET /readyz
// and the per-slot metric families. Resolvers that cannot be mid-swap
// (Static) report trivially-ready slots; the registry reports real
// lifecycle state.
type StateReporter interface {
	// SlotStates lists every slot, default first.
	SlotStates() []SlotState
}

// releaseNothing is the shared no-op release for resolvers whose
// engines are never swapped, so Resolve stays allocation-free.
func releaseNothing() {}

// Static adapts a single fixed engine to the Resolver interface: the
// one-model, no-reload serving plane. If info.Name is empty the model
// is served as "default".
func Static(e *Engine, info ModelInfo) Resolver {
	if info.Name == "" {
		info.Name = "default"
	}
	if info.Version == 0 {
		info.Version = 1
	}
	if info.LoadedAt.IsZero() {
		info.LoadedAt = time.Now()
	}
	return &staticResolver{e: e, info: info}
}

type staticResolver struct {
	e    *Engine
	info ModelInfo
}

func (s *staticResolver) Resolve(name string) (*Engine, ModelInfo, func(), error) {
	if name != "" && name != s.info.Name {
		return nil, ModelInfo{}, nil, fmt.Errorf("%w: %q (serving %q)", ErrUnknownModel, name, s.info.Name)
	}
	return s.e, s.info, releaseNothing, nil
}

func (s *staticResolver) Models() []ModelInfo { return []ModelInfo{s.info} }

// SlotStates reports the single fixed slot as always ready: a static
// engine cannot be mid-swap, and its one install is its only "swap".
func (s *staticResolver) SlotStates() []SlotState {
	return []SlotState{{Model: s.info, Ready: true, Swaps: s.info.Version}}
}

func (s *staticResolver) Reload(name string) (ModelInfo, bool, error) {
	if name != "" && name != s.info.Name {
		return ModelInfo{}, false, fmt.Errorf("%w: %q (serving %q)", ErrUnknownModel, name, s.info.Name)
	}
	return s.info, false, fmt.Errorf("%q: %w", s.info.Name, ErrNotReloadable)
}
