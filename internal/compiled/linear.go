package compiled

// The linear compilation: Naive Bayes, Maximum Entropy and Relative
// Entropy are all linear in the feature values and differ only in their
// score finalisation (prior first, bias last, mass-normalised with a
// margin). Each mode replays the exact accumulation order of the source
// model — ascending feature index, identical float64 operations — which
// is what keeps snapshot scores bit-identical. linearScores finalises
// the custom families' sparse vectors (values are the nonzero dense
// features); the token families (values are occurrence counts) replay
// the same operations straight from their ID bitmap (tokenScores in
// bitmap.go).

import (
	"fmt"

	"urllangid/internal/core"
	"urllangid/internal/langid"
	"urllangid/internal/maxent"
	"urllangid/internal/nb"
	"urllangid/internal/relent"
)

type compiledLinear struct {
	mode      mode
	weights   []float64
	pre, post [langid.NumLanguages]float64
}

// compileLinear packs the five binary models into the interleaved
// layout. All five must share one linear model family and the
// extractor's dimensionality; anything else is a System no trainer can
// produce and reports an error.
func compileLinear(sys *core.System, dim int) (compiledLinear, error) {
	var m compiledLinear
	m.weights = make([]float64, dim*langid.NumLanguages)
	pack := func(li int, w []float64) bool {
		if len(w) != dim {
			return false
		}
		for i, v := range w {
			m.weights[i*langid.NumLanguages+li] = v
		}
		return true
	}
	switch sys.Models[0].(type) {
	case *nb.Model:
		m.mode = modeCount
		for li := 0; li < langid.NumLanguages; li++ {
			nm, ok := sys.Models[li].(*nb.Model)
			if !ok || !pack(li, nm.LogLik) {
				return m, fmt.Errorf("model %d does not match the NB/%d-dim layout", li, dim)
			}
			m.pre[li] = nm.LogPrior
		}
	case *maxent.Model:
		m.mode = modeCountPost
		for li := 0; li < langid.NumLanguages; li++ {
			mm, ok := sys.Models[li].(*maxent.Model)
			if !ok || !pack(li, mm.Weights) {
				return m, fmt.Errorf("model %d does not match the ME/%d-dim layout", li, dim)
			}
			m.post[li] = mm.Bias
		}
	case *relent.Model:
		m.mode = modeNormalized
		for li := 0; li < langid.NumLanguages; li++ {
			rm, ok := sys.Models[li].(*relent.Model)
			if !ok || len(rm.LogPos) != dim || len(rm.LogNeg) != dim {
				return m, fmt.Errorf("model %d does not match the RE/%d-dim layout", li, dim)
			}
			// Precompute the log-ratio; the subtraction is the same
			// float64 operation relent.Model.Score performs per feature,
			// so hoisting it to compile time changes nothing bit-wise.
			for i := range rm.LogPos {
				m.weights[i*langid.NumLanguages+li] = rm.LogPos[i] - rm.LogNeg[i]
			}
			m.post[li] = -rm.Margin
		}
	default:
		return m, fmt.Errorf("no linear layout for %T", sys.Models[0])
	}
	return m, nil
}

// linearScores finalises a custom family's sparse feature vector
// (ascending unique indices with float32 values) under the compiled
// linear mode.
func (s *Snapshot) linearScores(idx []uint32, val []float32) [langid.NumLanguages]float64 {
	var out [langid.NumLanguages]float64
	switch s.mode {
	case modeCount:
		out = s.pre
		s.addWeighted(&out, idx, val, 1)
	case modeCountPost:
		s.addWeighted(&out, idx, val, 1)
		for li := range out {
			out[li] += s.post[li]
		}
	case modeNormalized:
		// The source model divides each value by the vector's total mass
		// (x.Sum(), accumulated in ascending index order) and answers
		// −margin for an empty vector.
		var sum float64
		for _, v := range val {
			sum += float64(v)
		}
		if sum <= 0 {
			return s.post
		}
		s.addWeighted(&out, idx, val, sum)
		for li := range out {
			out[li] += s.post[li]
		}
	}
	return out
}

// addWeighted adds each feature's weight strip, scaled by its value
// divided by div, into all five language accumulators.
func (s *Snapshot) addWeighted(out *[langid.NumLanguages]float64, idx []uint32, val []float32, div float64) {
	for k, id := range idx {
		v := float64(val[k])
		if div != 1 {
			v /= div
		}
		w := s.weights[int(id)*langid.NumLanguages : (int(id)+1)*langid.NumLanguages]
		for li := range out {
			out[li] += v * w[li]
		}
	}
}
