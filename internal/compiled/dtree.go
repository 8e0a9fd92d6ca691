package compiled

// Decision-tree compilation: each per-language tree flattens into
// parallel node arrays laid out in preorder — split feature, threshold,
// child indices — with leaf scores (Prob − 0.5, the exact value
// dtree.Model.Score computes) precomputed into the threshold slot.
// Walking the arrays touches a handful of contiguous cache lines and
// chases no pointers.

import (
	"fmt"
	"math"

	"urllangid/internal/core"
	"urllangid/internal/dtree"
	"urllangid/internal/langid"
)

// flatTree is one flattened decision tree. Node i splits on feat[i] at
// thr[i], with children kids[2i] (left, feature < threshold) and
// kids[2i+1] (right). A leaf has feat[i] == -1 and its score in thr[i].
// Preorder layout guarantees children follow their parent, which the
// loader exploits to validate termination.
type flatTree struct {
	feat []int32
	thr  []float64
	kids []int32
}

// compileTrees flattens all five per-language trees.
func (s *Snapshot) compileTrees(sys *core.System) error {
	for li := 0; li < langid.NumLanguages; li++ {
		m, ok := sys.Models[li].(*dtree.Model)
		if !ok || m.Root == nil {
			return fmt.Errorf("model %d is not a grown decision tree", li)
		}
		s.trees[li] = flattenTree(m)
	}
	return nil
}

// flattenTree lays m's nodes out in preorder.
func flattenTree(m *dtree.Model) flatTree {
	var t flatTree
	var walk func(n *dtree.Node) int32
	walk = func(n *dtree.Node) int32 {
		i := int32(len(t.feat))
		if n.IsLeaf() {
			t.feat = append(t.feat, -1)
			// The leaf score is the positive fraction shifted to be
			// sign-consistent with the decision, precomputed here with
			// the same subtraction Model.Score performs per call.
			t.thr = append(t.thr, n.Prob-0.5)
			t.kids = append(t.kids, 0, 0)
			return i
		}
		t.feat = append(t.feat, int32(n.Feature))
		t.thr = append(t.thr, n.Threshold)
		t.kids = append(t.kids, 0, 0)
		left := walk(n.Left)
		right := walk(n.Right)
		t.kids[2*i], t.kids[2*i+1] = left, right
		return i
	}
	walk(m.Root)
	return t
}

// score walks the tree with a feature getter, mirroring
// dtree.Model.Score: x.Get(feature) >= threshold goes right.
func (t *flatTree) score(get func(f uint32) float64) float64 {
	i := int32(0)
	for t.feat[i] >= 0 {
		if get(uint32(t.feat[i])) >= t.thr[i] {
			i = t.kids[2*i+1]
		} else {
			i = t.kids[2*i]
		}
	}
	return t.thr[i]
}

// dtreeScores walks all five trees. Custom-family snapshots read the
// dense vector directly; token-family snapshots resolve a feature to
// its occurrence count by binary search over the run-length encoded
// vector — the same lookup vecspace.Sparse.Get performs.
func (s *Snapshot) dtreeScores(dense []float32, idx []uint32, val []float32) [langid.NumLanguages]float64 {
	var get func(f uint32) float64
	if dense != nil {
		get = func(f uint32) float64 {
			if int(f) < len(dense) {
				return float64(dense[f])
			}
			return 0
		}
	} else {
		get = func(f uint32) float64 {
			lo, hi := 0, len(idx)
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if idx[mid] < f {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo < len(idx) && idx[lo] == f {
				return float64(val[lo])
			}
			return 0
		}
	}
	var out [langid.NumLanguages]float64
	for li := range out {
		out[li] = s.trees[li].score(get)
	}
	return out
}

// validate checks a deserialised tree's structural invariants: array
// lengths, feature bounds, finite thresholds, and the preorder child
// invariant (children strictly follow their parent), which guarantees
// every walk terminates. Flat snapshots run it on first scoring touch.
func (t *flatTree) validate(dim int) error {
	n := len(t.feat)
	if n == 0 {
		return fmt.Errorf("compiled: empty decision tree")
	}
	if len(t.thr) != n || len(t.kids) != 2*n {
		return fmt.Errorf("compiled: decision tree arrays disagree: %d features, %d thresholds, %d children",
			n, len(t.thr), len(t.kids))
	}
	for i := 0; i < n; i++ {
		if math.IsNaN(t.thr[i]) {
			return fmt.Errorf("compiled: decision tree node %d has a NaN threshold", i)
		}
		if t.feat[i] < 0 {
			continue
		}
		if int(t.feat[i]) >= dim {
			return fmt.Errorf("compiled: decision tree node %d splits on feature %d of %d", i, t.feat[i], dim)
		}
		l, r := t.kids[2*i], t.kids[2*i+1]
		if l <= int32(i) || r <= int32(i) || int(l) >= n || int(r) >= n {
			return fmt.Errorf("compiled: decision tree node %d has out-of-order children %d/%d", i, l, r)
		}
	}
	return nil
}
