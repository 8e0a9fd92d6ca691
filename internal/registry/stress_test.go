package registry

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"urllangid/internal/compiled"
	"urllangid/internal/langid"
	"urllangid/internal/modelfile"
	"urllangid/internal/serve"
)

// TestRegistrySwapStress is the zero-downtime acceptance test: while
// worker goroutines hammer Classify through leases, the main goroutine
// runs 120 swap/reload cycles flipping one slot between two models.
// Under -race (make race covers this package) it must hold that
//
//   - no Acquire or Classify ever fails or blocks on a swap;
//   - every result is *exactly* one model's answer — a half-swapped
//     slot would blend epochs and produce a score vector neither model
//     emits;
//   - versions only move forward;
//   - every retired version's closer runs exactly once, and never while
//     a lease holds that version — the closer is what unmaps a file, so
//     one that ran early would fault a request, and one that never ran
//     would leak the mapping.
func TestRegistrySwapStress(t *testing.T) {
	snapA := compiled.FromSystem(trainSystem(t, 31))
	snapB := compiled.FromSystem(trainSystem(t, 41))

	// Probe URLs with precomputed per-model answers; the two models must
	// disagree somewhere or "matches exactly one model" proves nothing.
	probes := []string{
		"http://www.nachrichten-wetter.de/zeitung/artikel",
		"http://www.produits-recherche.fr/annonces/paris",
		"http://www.ofertas-tienda.es/rebajas/hoy",
		"http://www.notizie-calcio.it/serie-a/roma",
		"http://www.weather-report.com/forecast/today",
	}
	expA := make(map[string][langid.NumLanguages]float64, len(probes))
	expB := make(map[string][langid.NumLanguages]float64, len(probes))
	differ := false
	for _, u := range probes {
		expA[u], expB[u] = snapA.Scores(u), snapB.Scores(u)
		differ = differ || expA[u] != expB[u]
	}
	if !differ {
		t.Fatal("the two stress models agree on every probe; swaps would be undetectable")
	}

	// Two on-disk versions for the Reload half of the cycle.
	dir := t.TempDir()
	fileA := filepath.Join(dir, "a.model")
	fileB := filepath.Join(dir, "b.model")
	live := filepath.Join(dir, "live.model")
	writeSnapshotFile(t, fileA, snapA)
	writeSnapshotFile(t, fileB, snapB)
	copyFile(t, live, fileA)

	const hammers = 8
	var (
		stop     atomic.Bool
		requests atomic.Int64
		failures atomic.Int64
		firstErr atomic.Value
	)
	fail := func(format string, args ...any) {
		failures.Add(1)
		firstErr.CompareAndSwap(nil, fmt.Sprintf(format, args...))
	}

	reg := New(Options{Engine: serve.Options{Workers: 4, CacheCapacity: 256}})
	// Two slots swap concurrently: "live" is file-backed and cycles via
	// Reload, "prog" is programmatic and cycles via install with a
	// tracked closer. The hammers route across both plus the default
	// route.
	if _, err := reg.LoadFile("live", live); err != nil {
		t.Fatal(err)
	}
	var progVersions, progCloses atomic.Int64
	installProg := func(snap *compiled.Snapshot) (serve.ModelInfo, error) {
		progVersions.Add(1)
		return installTracked(reg, "prog", snap, &progCloses, fail)
	}
	if _, err := installProg(snapA); err != nil {
		t.Fatal(err)
	}
	routes := []string{"", "live", "prog"}
	var wg sync.WaitGroup
	for g := 0; g < hammers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				u := probes[(i+g)%len(probes)]
				l, err := reg.Acquire(routes[i%len(routes)])
				if err != nil {
					fail("Acquire failed mid-swap: %v", err)
					return
				}
				m, tracked := l.Engine().Predictor().(*trackedModel)
				if tracked {
					m.use()
				}
				got := l.Engine().Classify(u).Scores()
				ver := l.Info().Version
				if tracked {
					m.users.Add(-1)
				}
				l.Release()
				requests.Add(1)
				if got != expA[u] && got != expB[u] {
					fail("half-swapped result for %s at version %d: %v", u, ver, got)
					return
				}
			}
		}(g)
	}

	// 60 rounds of two swaps each: redeploy-the-file + Reload on "live",
	// install on "prog" — both install paths drain the old epoch the
	// same way. Every 10th round double-checks that an unchanged file
	// reload is a no-op.
	const rounds = 60
	lastLive, lastProg := int64(1), int64(1)
	for c := 0; c < rounds; c++ {
		src, next := fileB, snapB
		if c%2 == 1 {
			src, next = fileA, snapA
		}
		copyFile(t, live, src)
		info, changed, err := reg.Reload("live")
		if err != nil {
			t.Fatalf("round %d reload: %v", c, err)
		}
		if !changed {
			t.Fatalf("round %d: effective reload reported unchanged", c)
		}
		if info.Version <= lastLive {
			t.Fatalf("round %d: live version went %d -> %d", c, lastLive, info.Version)
		}
		lastLive = info.Version

		info, err = installProg(next)
		if err != nil {
			t.Fatalf("round %d install: %v", c, err)
		}
		if info.Version <= lastProg {
			t.Fatalf("round %d: prog version went %d -> %d", c, lastProg, info.Version)
		}
		lastProg = info.Version

		if c%10 == 9 {
			if _, noop, err := reg.Reload("live"); err != nil || noop {
				t.Fatalf("round %d: unchanged reload = (%v, %v)", c, noop, err)
			}
		}
	}

	stop.Store(true)
	wg.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d failures in %d requests (first: %v)", failures.Load(), requests.Load(), firstErr.Load())
	}
	if requests.Load() == 0 {
		t.Fatal("hammer goroutines classified nothing; the stress proved nothing")
	}
	// With every lease released, each retired version has drained.
	if got, want := progCloses.Load(), progVersions.Load()-1; got != want {
		t.Errorf("%d retired versions ran their closer, want %d", got, want)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Acquire(""); err == nil {
		t.Error("Acquire succeeded after Close")
	}
	if got, want := progCloses.Load(), progVersions.Load(); got != want {
		t.Errorf("after Close %d of %d versions ran their closer", got, want)
	}
	if failures.Load() > 0 {
		t.Fatalf("closer misuse: %v", firstErr.Load())
	}
}

// trackedModel is a model version whose closer checks how it is used:
// holders count themselves in users while they classify through it, and
// its closer must run exactly once, with no user left.
type trackedModel struct {
	*compiled.Snapshot
	users  atomic.Int64
	closed atomic.Bool
	closes *atomic.Int64
	fail   func(format string, args ...any)
}

// installTracked installs snap under name as a new trackedModel
// version, counting its closer's runs in closes.
func installTracked(reg *Registry, name string, snap *compiled.Snapshot, closes *atomic.Int64, fail func(string, ...any)) (serve.ModelInfo, error) {
	m := &trackedModel{Snapshot: snap, closes: closes, fail: fail}
	return reg.install(name, m, serve.ModelInfo{Name: name, Model: snap.Describe(), Mode: snap.Mode()}, m.close)
}

// use counts one user in; the caller counts it out with users.Add(-1).
func (m *trackedModel) use() {
	m.users.Add(1)
	if m.closed.Load() {
		m.fail("a %s version was used after its closer ran", m.Describe())
	}
}

// Scores counts the call as a use, for holders that score the model
// directly, as a cascade scores its tiers.
func (m *trackedModel) Scores(rawURL string) [langid.NumLanguages]float64 {
	m.use()
	defer m.users.Add(-1)
	return m.Snapshot.Scores(rawURL)
}

func (m *trackedModel) close() error {
	if m.closed.Swap(true) {
		m.fail("the closer of a %s version ran twice", m.Describe())
	}
	if n := m.users.Load(); n != 0 {
		m.fail("the closer of a %s version ran with %d users", m.Describe(), n)
	}
	m.closes.Add(1)
	return nil
}

// writeSnapshotFile writes snap to path as a v3 file, by rename.
func writeSnapshotFile(t testing.TB, path string, snap *compiled.Snapshot) {
	t.Helper()
	if err := modelfile.WriteFile(path, snap.WriteFlat); err != nil {
		t.Fatal(err)
	}
}

// copyFile redeploys src to dst by rename: the registry may have dst
// mapped, and an in-place rewrite would change the mapped bytes.
func copyFile(t testing.TB, dst, src string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	err = modelfile.WriteFile(dst, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}
