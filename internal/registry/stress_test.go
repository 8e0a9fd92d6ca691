package registry

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
//   - every retired engine is closed: engines own pool goroutines, so
//     120 leaked engines would leave hundreds of goroutines behind the
//     final count check.
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

	baseline := runtime.NumGoroutine()
	reg := New(Options{Engine: serve.Options{Workers: 4, CacheCapacity: 256}})
	// Two slots swap concurrently: "live" is file-backed and cycles via
	// Reload, "prog" is programmatic and cycles via Install. The
	// hammers route across both plus the default route.
	if _, err := reg.LoadFile("live", live); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Install("prog", snapA, snapA.Describe(), snapA.Mode()); err != nil {
		t.Fatal(err)
	}
	routes := []string{"", "live", "prog"}

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
				got := l.Engine().Classify(u).Scores()
				ver := l.Info().Version
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
	// Install on "prog" — both install paths drain the old epoch the
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

		info, err = reg.Install("prog", next, next.Describe(), next.Mode())
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
		t.Fatalf("%d bad results of %d (first: %v)", failures.Load(), requests.Load(), firstErr.Load())
	}
	if requests.Load() == 0 {
		t.Fatal("hammer goroutines classified nothing; the stress proved nothing")
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Acquire(""); err == nil {
		t.Error("Acquire succeeded after Close")
	}

	// Every epoch's engine owns Workers-1 pool goroutines; leaked
	// engines (a swap that forgot to release, a refcount that never hit
	// zero) would hold them forever. Give exiting goroutines a moment.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked across %d swap rounds: baseline %d, now %d\n%s",
				rounds, baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
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
