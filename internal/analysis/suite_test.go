package analysis_test

import (
	"testing"

	"urllangid/internal/analysis"
	"urllangid/internal/analysis/analysistest"
)

// Each analyzer is pinned by a golden package under testdata/src: the
// harness fails on unexpected diagnostics as well as missed ones, so
// both the findings and the allowed idioms are locked.

func TestHotpathAlloc(t *testing.T) {
	analysistest.Run(t, analysis.HotpathAlloc, "./testdata/src/hotpathalloc")
}

func TestPinPair(t *testing.T) {
	analysistest.Run(t, analysis.PinPair, "./testdata/src/pinpair")
}

func TestModelFileIO(t *testing.T) {
	analysistest.Run(t, analysis.ModelFileIO, "./testdata/src/modelfileio")
}

func TestLockOrder(t *testing.T) {
	analysistest.Run(t, analysis.LockOrder, "./testdata/src/lockorder")
}
