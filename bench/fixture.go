package main

import (
	"fmt"
	"os"
	"path/filepath"

	"urllangid/internal/calib"
	"urllangid/internal/compiled"
	"urllangid/internal/core"
	"urllangid/internal/datagen"
	"urllangid/internal/features"
	"urllangid/internal/langid"
	"urllangid/internal/modelfile"
	"urllangid/internal/urlx"
)

// The fixture is fixed, not seeded by -seed: the program under test (the
// two tier models) and the set of URLs each workload draws from stay the
// same on every run, and the workload seed only decides order, batching
// and repeats. So macro_f1 is exact per commit and a change of answers
// shows as a change of it.
const (
	fixtureSeed  = 41 // cmd/urllangid-loadgen's default, so the models match its fixture
	trainPerLang = 800
	calibPerLang = 200
	odpPerLang   = 2000   // lookup-single pool: 10,000 ODP test URLs
	wcPoolSize   = 262144 // crawl and stream pool: 2 × the server's cache
)

// fixture holds what every workload shares: the tier model files the
// server and the in-process references load, and the labeled pools.
type fixture struct {
	fastPath, slowPath string
	// fastVocab is the fast tier's token vocabulary; the strtab layer is
	// timed on a table built from it.
	fastVocab []string
	universe  *datagen.Universe
	odp       []langid.Sample
	wc        []langid.Sample // built on first use
}

// newFixture trains the seeded fixture models the way
// cmd/urllangid-loadgen does — a calibrated NB/word fast tier and an
// NB/trigram slow tier — and writes them into dir as v3 files.
func newFixture(dir string) (*fixture, error) {
	u := datagen.NewUniverse(fixtureSeed)
	// Ten per cent over the pool size leaves room for URLs dropped as
	// duplicates of an earlier URL's normal form.
	ds := datagen.GenerateFrom(u, datagen.Config{
		Kind: datagen.ODP, TrainPerLang: trainPerLang, TestPerLang: calibPerLang + odpPerLang*11/10,
	})
	var calibSet []langid.Sample
	var rest [langid.NumLanguages][]langid.Sample
	seen := make([]int, langid.NumLanguages)
	for _, s := range ds.Test {
		if seen[s.Lang] < calibPerLang {
			calibSet = append(calibSet, s)
		} else {
			rest[s.Lang] = append(rest[s.Lang], s)
		}
		seen[s.Lang]++
	}
	var want [langid.NumLanguages]int
	for li := range want {
		want[li] = odpPerLang
	}
	odp, err := distinctPool(rest, want)
	if err != nil {
		return nil, fmt.Errorf("ODP pool: %w", err)
	}

	fastSys, err := core.Train(core.Config{Algo: core.NaiveBayes, Features: features.Words, Seed: fixtureSeed}, ds.Train)
	if err != nil {
		return nil, fmt.Errorf("training fast tier: %w", err)
	}
	fast := compiled.FromSystem(fastSys)
	cal, _, err := calib.FitEval(fast.Scores, calibSet, 0)
	if err != nil {
		return nil, fmt.Errorf("calibrating fast tier: %w", err)
	}
	fast.SetCalibration(cal)
	slowSys, err := core.Train(core.Config{Algo: core.NaiveBayes, Features: features.Trigrams, Seed: fixtureSeed}, ds.Train)
	if err != nil {
		return nil, fmt.Errorf("training slow tier: %w", err)
	}
	fx := &fixture{
		fastPath:  filepath.Join(dir, "fast.v3"),
		slowPath:  filepath.Join(dir, "slow.v3"),
		fastVocab: fastSys.Extractor.(*features.WordExtractor).Vocab().Names(),
		universe:  u,
		odp:       odp,
	}
	if err := writeSnapshot(fx.fastPath, fast); err != nil {
		return nil, err
	}
	if err := writeSnapshot(fx.slowPath, compiled.FromSystem(slowSys)); err != nil {
		return nil, err
	}
	return fx, nil
}

func writeSnapshot(path string, snap *compiled.Snapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := modelfile.WriteSnapshot(f, snap); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// wcPool returns wcPoolSize distinct WC URLs with the paper's crawl
// class skew (Table 1), generated on first use.
func (fx *fixture) wcPool() ([]langid.Sample, error) {
	if fx.wc != nil {
		return fx.wc, nil
	}
	total := 0
	for _, n := range datagen.WCTestCounts {
		total += n
	}
	var want [langid.NumLanguages]int
	sum := 0
	for li, n := range datagen.WCTestCounts {
		want[li] = wcPoolSize * n / total
		sum += want[li]
	}
	want[langid.English] += wcPoolSize - sum // the rounding remainder
	// Fifteen per cent over the pool size leaves room for duplicates.
	ds := datagen.GenerateFrom(fx.universe, datagen.Config{Kind: datagen.WC, TestPerLang: wcPoolSize / langid.NumLanguages * 115 / 100})
	var byLang [langid.NumLanguages][]langid.Sample
	for _, s := range ds.Test {
		byLang[s.Lang] = append(byLang[s.Lang], s)
	}
	pool, err := distinctPool(byLang, want)
	if err != nil {
		return nil, fmt.Errorf("WC pool: %w", err)
	}
	fx.wc = pool
	return pool, nil
}

// distinctPool takes, per language, the first want[l] samples whose
// normal form no earlier sample has. Distinct normal forms are distinct
// cache keys, which is what lets the workloads set their hit ratios.
func distinctPool(byLang [langid.NumLanguages][]langid.Sample, want [langid.NumLanguages]int) ([]langid.Sample, error) {
	seen := make(map[string]bool)
	var pool []langid.Sample
	for li, samples := range byLang {
		n := 0
		for _, s := range samples {
			if n == want[li] {
				break
			}
			key := urlx.Normalize(s.URL)
			if seen[key] {
				continue
			}
			seen[key] = true
			pool = append(pool, s)
			n++
		}
		if n < want[li] {
			return nil, fmt.Errorf("%s: only %d distinct URLs, want %d", langid.Language(li), n, want[li])
		}
	}
	return pool, nil
}
