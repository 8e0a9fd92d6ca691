package modelfile

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"testing"

	"urllangid/internal/calib"
	"urllangid/internal/compiled"
	"urllangid/internal/core"
	"urllangid/internal/datagen"
	"urllangid/internal/features"
	"urllangid/internal/modelfile/flat"
)

// fuzzProbeURL is what a snapshot that passes Verify must classify
// without panicking.
const fuzzProbeURL = "http://www.wetter-bericht.de/heute/seite.html"

// FuzzReadModel throws arbitrary bytes at ReadBytes, the entry point
// every model file goes through, and asserts its contract: no panic;
// either an error or exactly one model with its metadata; and a
// snapshot whose Verify passes classifies a probe URL without
// panicking.
//
// The section and directory digests would otherwise stop almost every
// mutation of a v3 file before LoadFlat or Verify look at it, so each
// input that frames a v3 directory runs twice: raw, and with every
// in-bounds section digest and the directory digest re-stamped.
func FuzzReadModel(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReadModel(t, data)
		if stamped, ok := restamp(data); ok {
			checkReadModel(t, stamped)
		}
	})
}

// fuzzSeeds returns a v2 classifier, a v3 snapshot for each compiled
// mode (the linear one calibrated), and the retired encodings. The
// models train on a few URLs per language: small inputs keep the
// fuzzer's mutation and minimisation fast.
func fuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	ds := datagen.Generate(datagen.Config{Kind: datagen.ODP, Seed: 73, TrainPerLang: 3, TestPerLang: 8})
	var seeds [][]byte
	for _, cfg := range []core.Config{
		{Algo: core.NaiveBayes, Features: features.Words, Seed: 1},
		{Algo: core.NaiveBayes, Features: features.CustomSelected, Seed: 1},
		{Algo: core.DecisionTree, Features: features.CustomSelected, Seed: 1},
		{Algo: core.KNN, Features: features.Words, Seed: 1, KNNMaxReference: 8},
		{Algo: core.CcTLD},
	} {
		train := ds.Train
		if !cfg.Algo.NeedsTraining() {
			train = nil
		}
		sys, err := core.Train(cfg, train)
		if err != nil {
			tb.Fatal(err)
		}
		snap := compiled.FromSystem(sys)
		if snap.Mode() == "linear" {
			c, _, err := calib.FitEval(snap.Scores, ds.Test, 0)
			if err != nil {
				tb.Fatal(err)
			}
			snap.SetCalibration(c)
			var clf bytes.Buffer
			if err := WriteClassifier(&clf, sys); err != nil {
				tb.Fatal(err)
			}
			seeds = append(seeds, clf.Bytes())
			for _, c := range retiredEncodings(tb, sys) {
				seeds = append(seeds, c.data)
			}
		}
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, snap); err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	return seeds
}

// checkReadModel reads one candidate and checks the result's shape.
func checkReadModel(t *testing.T, data []byte) {
	sys, snap, meta, err := ReadBytes(data)
	if err != nil {
		if sys != nil || snap != nil || meta != nil {
			t.Fatalf("ReadBytes returned a model alongside %v", err)
		}
		return
	}
	if (sys == nil) == (snap == nil) || meta == nil {
		t.Fatalf("ReadBytes returned sys=%v snap=%v meta=%v and no error", sys != nil, snap != nil, meta != nil)
	}
	if snap != nil && snap.Verify() == nil {
		snap.Classify(fuzzProbeURL)
	}
}

// restamp returns a copy of data with every in-bounds section digest
// and then the directory digest recomputed, when data frames a v3
// section directory.
func restamp(data []byte) ([]byte, bool) {
	if len(data) < flat.HeaderSize || !flat.IsFlat(data) {
		return nil, false
	}
	count := binary.LittleEndian.Uint32(data[24:28])
	end := uint64(flat.HeaderSize) + uint64(count)*flat.EntrySize
	if end > uint64(len(data)) {
		return nil, false
	}
	out := bytes.Clone(data)
	size := uint64(len(out))
	for e := uint64(flat.HeaderSize); e < end; e += flat.EntrySize {
		off := binary.LittleEndian.Uint64(out[e+8:])
		n := binary.LittleEndian.Uint64(out[e+16:])
		if off <= size && n <= size-off {
			sum := sha256.Sum256(out[off : off+n])
			copy(out[e+24:e+56], sum[:])
		}
	}
	sum := sha256.Sum256(out[flat.HeaderSize:end])
	copy(out[32:64], sum[:])
	return out, true
}
