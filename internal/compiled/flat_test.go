package compiled

import (
	"bytes"
	"testing"

	"urllangid/internal/calib"
	"urllangid/internal/modelfile/flat"
)

// TestFlatRoundTripBitIdentical is the round-trip proof: every
// compilable Algorithm×FeatureSet survives WriteFlat → Parse → LoadFlat
// with bit-identical predictions against the source system.
func TestFlatRoundTripBitIdentical(t *testing.T) {
	train, probes := corpusEnv(t)
	for _, tc := range systemConfigs {
		t.Run(tc.cfg.Describe()+"/"+tc.mode, func(t *testing.T) {
			t.Parallel()
			sys := trainSystem(t, tc.cfg, train)
			snap := FromSystem(sys)

			var fb bytes.Buffer
			if err := snap.WriteFlat(&fb); err != nil {
				t.Fatal(err)
			}
			ff, err := flat.Parse(fb.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			fromFlat, err := LoadFlat(ff, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := fromFlat.Verify(); err != nil {
				t.Fatal(err)
			}
			if fromFlat.Mode() != snap.Mode() || fromFlat.Describe() != snap.Describe() {
				t.Fatalf("metadata drift: mode %q/%q describe %q/%q",
					snap.Mode(), fromFlat.Mode(), snap.Describe(), fromFlat.Describe())
			}
			assertIdentical(t, sys, fromFlat, probes)

			// Close without a mapping is a safe no-op, twice.
			if err := fromFlat.Close(); err != nil {
				t.Fatal(err)
			}
			if err := fromFlat.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFlatWriteDeterministic pins that WriteFlat is byte-stable: the
// registry's digest-skip Reload probe and the committed-model workflow
// both depend on identical snapshots producing identical containers.
func TestFlatWriteDeterministic(t *testing.T) {
	train, _ := corpusEnv(t)
	snap := FromSystem(trainSystem(t, systemConfigs[0].cfg, train))
	var a, b bytes.Buffer
	if err := snap.WriteFlat(&a); err != nil {
		t.Fatal(err)
	}
	if err := snap.WriteFlat(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("WriteFlat output differs across identical writes")
	}
}

// TestFlatCorruptPayloadCaughtByVerify pins the lazy-verification
// contract at the snapshot layer: a flipped payload byte loads fine
// (structure is intact) but Verify reports it before any scoring.
func TestFlatCorruptPayloadCaughtByVerify(t *testing.T) {
	train, _ := corpusEnv(t)
	snap := FromSystem(trainSystem(t, systemConfigs[0].cfg, train))
	var buf bytes.Buffer
	if err := snap.WriteFlat(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)-1] ^= 0xff
	ff, err := flat.Parse(data)
	if err != nil {
		t.Fatalf("Parse rejected payload-only corruption: %v", err)
	}
	loaded, err := LoadFlat(ff, nil)
	if err != nil {
		// Eagerly-materialised sections may legitimately catch it at load.
		return
	}
	if err := loaded.Verify(); err == nil {
		t.Fatal("Verify passed on a corrupt payload")
	}
}

// TestFlatCalibrationRoundTrip proves the calibration section survives
// WriteFlat → Parse → LoadFlat with the mapping intact, and that it
// rides along without disturbing the model arrays.
func TestFlatCalibrationRoundTrip(t *testing.T) {
	train, probes := corpusEnv(t)
	snap := FromSystem(trainSystem(t, systemConfigs[0].cfg, train))
	cal, err := calib.Fit([]calib.Point{
		{Margin: 0.1, Correct: false},
		{Margin: 0.5, Correct: false},
		{Margin: 1.2, Correct: true},
		{Margin: 2.0, Correct: true},
		{Margin: 3.5, Correct: true},
	}, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	snap.SetCalibration(cal)

	var buf bytes.Buffer
	if err := snap.WriteFlat(&buf); err != nil {
		t.Fatal(err)
	}
	ff, err := flat.Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFlat(ff, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := loaded.Calibration()
	if got == nil {
		t.Fatal("calibration did not survive the flat round trip")
	}
	if got.Threshold() != cal.Threshold() || got.Len() != cal.Len() {
		t.Fatalf("calibration shape drift: %v/%d vs %v/%d",
			got.Threshold(), got.Len(), cal.Threshold(), cal.Len())
	}
	lo, hi := cal.Range()
	for _, m := range []float64{lo - 1, lo, (lo + hi) / 2, hi, hi + 1} {
		if a, b := cal.Prob(m), got.Prob(m); a != b {
			t.Fatalf("Prob(%v) drifted: %v vs %v", m, a, b)
		}
	}
	if p, ok := loaded.Confidence(hi); !ok || p != cal.Prob(hi) {
		t.Fatalf("Confidence(%v) = %v,%v; want %v,true", hi, p, ok, cal.Prob(hi))
	}
	if err := loaded.Verify(); err != nil {
		t.Fatal(err)
	}
	for _, u := range probes {
		if a, b := snap.Classify(u), loaded.Classify(u); a != b {
			t.Fatalf("%q classification drift with calibration present", u)
		}
	}
}

// TestFlatUncalibratedLoads pins backward compatibility: a container
// written without a calibration section — i.e. every file from before
// the section type existed — loads with a nil calibration and
// Confidence reporting not-ok.
func TestFlatUncalibratedLoads(t *testing.T) {
	train, _ := corpusEnv(t)
	snap := FromSystem(trainSystem(t, systemConfigs[0].cfg, train))
	var buf bytes.Buffer
	if err := snap.WriteFlat(&buf); err != nil {
		t.Fatal(err)
	}
	ff, err := flat.Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFlat(ff, nil)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Calibration() != nil {
		t.Fatal("uncalibrated file produced a calibration")
	}
	if _, ok := loaded.Confidence(1.0); ok {
		t.Fatal("Confidence reported ok without a calibration")
	}
}

// TestFlatCorruptCalibrationRejected ensures a tampered calibration
// section cannot load: the eager digest check (or the decoder's
// monotonicity validation) must catch it.
func TestFlatCorruptCalibrationRejected(t *testing.T) {
	train, _ := corpusEnv(t)
	snap := FromSystem(trainSystem(t, systemConfigs[0].cfg, train))
	cal, err := calib.Fit([]calib.Point{
		{Margin: 0, Correct: false},
		{Margin: 1, Correct: true},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap.SetCalibration(cal)
	var buf bytes.Buffer
	if err := snap.WriteFlat(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	enc := cal.Encode()
	at := bytes.Index(data, enc)
	if at < 0 {
		t.Fatal("calibration payload not found in container bytes")
	}
	data[at+len(enc)-1] ^= 0xff
	ff, err := flat.Parse(data)
	if err != nil {
		t.Fatalf("Parse runs lazy payload digests, should not catch this: %v", err)
	}
	if _, err := LoadFlat(ff, nil); err == nil {
		t.Fatal("LoadFlat accepted a corrupt calibration section")
	}
}
