package registry

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"urllangid/internal/compiled"
	"urllangid/internal/core"
	"urllangid/internal/datagen"
	"urllangid/internal/features"
	"urllangid/internal/modelfile"
	"urllangid/internal/serve"
)

// trainSystem builds a small NB/word system; distinct seeds produce
// distinct weights, so swapped versions answer distinguishably.
func trainSystem(t testing.TB, seed uint64) *core.System {
	t.Helper()
	ds := datagen.Generate(datagen.Config{
		Kind: datagen.ODP, Seed: seed, TrainPerLang: 300, TestPerLang: 1,
	})
	sys, err := core.Train(core.Config{Algo: core.NaiveBayes, Features: features.Words, Seed: seed}, ds.Train)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func writeClassifierFile(t testing.TB, path string, sys *core.System) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := modelfile.WriteClassifier(f, sys); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryInstallAcquireModels(t *testing.T) {
	reg := New(Options{})
	defer reg.Close()

	snapA := compiled.FromSystem(trainSystem(t, 31))
	snapB := compiled.FromSystem(trainSystem(t, 41))
	if _, err := reg.Install("alpha", snapA, snapA.Describe(), snapA.Mode()); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Install("beta", snapB, snapB.Describe(), snapB.Mode()); err != nil {
		t.Fatal(err)
	}

	// "" resolves the first-installed slot.
	l, err := reg.Acquire("")
	if err != nil {
		t.Fatal(err)
	}
	if l.Info().Name != "alpha" || l.Info().Version != 1 || l.Info().Mode != "linear" {
		t.Errorf("default lease info = %+v", l.Info())
	}
	u := "http://www.nachrichten-wetter.de/zeitung"
	if got, want := l.Engine().Classify(u).Scores(), snapA.Scores(u); got != want {
		t.Error("default slot does not serve alpha's model")
	}
	l.Release()

	l, err = reg.Acquire("beta")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := l.Engine().Classify(u).Scores(), snapB.Scores(u); got != want {
		t.Error("beta slot does not serve beta's model")
	}
	l.Release()

	if _, err := reg.Acquire("gamma"); !errors.Is(err, serve.ErrUnknownModel) {
		t.Errorf("unknown name error = %v", err)
	}
	if _, err := reg.Install("", snapA, "x", "y"); err == nil {
		t.Error("empty name accepted")
	}

	models := reg.Models()
	if len(models) != 2 || models[0].Name != "alpha" || models[1].Name != "beta" {
		t.Errorf("Models() = %+v, want alpha (default) then beta", models)
	}
	for _, m := range models {
		if m.Digest != "" || m.Path != "" {
			t.Errorf("programmatic install %q carries file identity %q/%q", m.Name, m.Digest, m.Path)
		}
		if m.LoadedAt.IsZero() {
			t.Errorf("%q has no load time", m.Name)
		}
	}
}

func TestRegistryAcquireOnEmptyAndClosed(t *testing.T) {
	reg := New(Options{})
	if _, err := reg.Acquire(""); !errors.Is(err, serve.ErrNoModels) {
		t.Errorf("empty registry error = %v", err)
	}
	snap := compiled.FromSystem(trainSystem(t, 31))
	if _, err := reg.Install("m", snap, "NB/word", "linear"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Acquire("m"); !errors.Is(err, serve.ErrNoModels) {
		t.Errorf("closed registry error = %v", err)
	}
	if _, err := reg.Install("m2", snap, "NB/word", "linear"); err == nil {
		t.Error("closed registry accepted an install")
	}
	if err := reg.Close(); err != nil {
		t.Error("Close is not idempotent")
	}
}

func TestRegistryLoadFileAndReload(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "live.model")
	sysA, sysB := trainSystem(t, 31), trainSystem(t, 41)
	writeClassifierFile(t, path, sysA)

	reg := New(Options{Engine: serve.Options{Workers: 2, CacheCapacity: 64}})
	defer reg.Close()
	info, err := reg.LoadFile("m", path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 1 || info.Model != "NB/word" || info.Mode != "linear" || info.Path != path {
		t.Errorf("loaded info = %+v", info)
	}
	if len(info.Digest) != 64 {
		t.Errorf("digest = %q, want 64 hex chars", info.Digest)
	}

	// Unchanged file: reload is a no-op.
	got, changed, err := reg.Reload("m")
	if err != nil || changed {
		t.Fatalf("no-op reload = (%+v, %v, %v)", got, changed, err)
	}
	if got.Version != 1 {
		t.Errorf("no-op reload bumped version to %d", got.Version)
	}

	// Redeployed file: reload swaps and bumps the version.
	writeClassifierFile(t, path, sysB)
	got, changed, err = reg.Reload("m")
	if err != nil || !changed {
		t.Fatalf("effective reload = (%+v, %v, %v)", got, changed, err)
	}
	if got.Version != 2 || got.Digest == info.Digest {
		t.Errorf("reloaded info = %+v (old digest %.12s)", got, info.Digest)
	}
	u := "http://www.nachrichten-wetter.de/zeitung"
	l, err := reg.Acquire("m")
	if err != nil {
		t.Fatal(err)
	}
	if gotScores, want := l.Engine().Classify(u).Scores(), sysB.Scores(u); gotScores != want {
		t.Error("slot still serves the old model after reload")
	}
	l.Release()

	// Registry default ("") also reloads; a vanished file reports its error.
	if _, _, err := reg.Reload(""); err != nil {
		t.Errorf("default-name reload: %v", err)
	}
	os.Remove(path)
	if _, _, err := reg.Reload("m"); err == nil {
		t.Error("reload of a deleted file succeeded")
	}
	if _, _, err := reg.Reload("nope"); !errors.Is(err, serve.ErrUnknownModel) {
		t.Errorf("unknown reload error = %v", err)
	}
}

func TestRegistryReloadRejectsProgrammaticSlot(t *testing.T) {
	reg := New(Options{})
	defer reg.Close()
	snap := compiled.FromSystem(trainSystem(t, 31))
	if _, err := reg.Install("m", snap, "NB/word", "linear"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Reload("m"); !errors.Is(err, serve.ErrNotReloadable) {
		t.Errorf("reload of programmatic slot = %v", err)
	}
}

func TestRegistryLoadFileErrors(t *testing.T) {
	reg := New(Options{})
	defer reg.Close()
	if _, err := reg.LoadFile("m", filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file accepted")
	}
	empty := filepath.Join(t.TempDir(), "empty.model")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := reg.LoadFile("m", empty)
	if err == nil || !strings.Contains(err.Error(), "not a model file (0 bytes") {
		t.Errorf("empty file error = %v", err)
	}
	// A headerless classifier gob, as releases before the container
	// header saved it, no longer loads and names the command to rerun.
	var gob bytes.Buffer
	if err := trainSystem(t, 31).Save(&gob); err != nil {
		t.Fatal(err)
	}
	legacy := filepath.Join(t.TempDir(), "legacy.model")
	if err := os.WriteFile(legacy, gob.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = reg.LoadFile("m", legacy)
	if err == nil || !strings.Contains(err.Error(), `"urllangid train"`) {
		t.Errorf("headerless gob error = %v", err)
	}
	if len(reg.Models()) != 0 {
		t.Error("failed load left a slot behind")
	}
}

// TestRegistryLeaseSurvivesSwap is the drain contract in miniature: a
// lease taken before a swap keeps classifying on the old engine, the
// new default answers with the new model immediately, and the old
// engine closes only after the lease releases.
func TestRegistryLeaseSurvivesSwap(t *testing.T) {
	reg := New(Options{Engine: serve.Options{Workers: 2}})
	defer reg.Close()
	snapA := compiled.FromSystem(trainSystem(t, 31))
	snapB := compiled.FromSystem(trainSystem(t, 41))
	if _, err := reg.Install("m", snapA, "NB/word", "linear"); err != nil {
		t.Fatal(err)
	}

	u := "http://www.produits-recherche.fr/annonces"
	held, err := reg.Acquire("m")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Install("m", snapB, "NB/word", "linear"); err != nil {
		t.Fatal(err)
	}

	// The held lease still answers with A, a fresh acquire with B.
	if got := held.Engine().Classify(u).Scores(); got != snapA.Scores(u) {
		t.Error("held lease no longer serves the old version")
	}
	fresh, err := reg.Acquire("m")
	if err != nil {
		t.Fatal(err)
	}
	if got := fresh.Engine().Classify(u).Scores(); got != snapB.Scores(u) {
		t.Error("fresh lease does not serve the new version")
	}
	if fresh.Info().Version != 2 {
		t.Errorf("fresh lease version = %d, want 2", fresh.Info().Version)
	}
	fresh.Release()

	// The old engine is still functional until the last holder lets go.
	if got := held.Engine().Classify(u).Scores(); got != snapA.Scores(u) {
		t.Error("old engine died while still leased")
	}
	held.Release()
}
