package compiled

// The flat (container v3) wire format: the snapshot's serving arrays
// persisted as typed, alignment-safe little-endian sections that load
// as views over the file bytes instead of decoded heap copies. The
// section codec, alignment rules and digest scheme live in
// internal/modelfile/flat; this file maps the Snapshot onto that
// vocabulary — which arrays go in which sections, and which invariants
// must hold before scoring may trust them.
//
// Loading is two-phase, matching the container's verification contract:
//
//   - LoadFlat runs only O(1) work per section — shape checks, view
//     construction — so open time is independent of model size. The
//     metadata JSON and the dictionary token lists are the exception:
//     they must be materialised to build the snapshot, so they are
//     digest-verified eagerly before use.
//   - The first scoring touch (or an explicit Verify call) runs the
//     deferred O(model) pass once: every section payload is checked
//     against its directory digest, and the structural invariants the
//     hot path relies on — string-table probe reachability, tree
//     preorder termination, kNN CSR bounds — are validated. A trigram
//     snapshot also derives its trigram index here, and a word snapshot
//     its word index, from the validated table, so the file format
//     carries no extra section. A snapshot that fails verification
//     panics on Classify (the only channel a hot-path method has) with
//     the underlying corruption error; callers that want an error
//     instead probe Verify first.
//
// The arrays a flat snapshot scores from are bit-identical to the ones
// FromSystem builds — same float64 values, same storage order, same
// norms — so a loaded file classifies exactly as the snapshot it was
// written from (flat_test.go proves it over the full configuration
// matrix).

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"urllangid/internal/calib"
	"urllangid/internal/core"
	"urllangid/internal/dict"
	"urllangid/internal/features"
	"urllangid/internal/langid"
	"urllangid/internal/modelfile/flat"
	"urllangid/internal/strtab"
	"urllangid/internal/textstat"
)

// flatMeta is the SecMeta JSON payload: everything about the model that
// is not a bulk array. Stored as JSON so foreign tooling (and the
// inspect subcommand) can read a v3 file's identity without this
// package's type definitions.
type flatMeta struct {
	Label  string      `json:"label"`
	Mode   string      `json:"mode"`
	ModeID uint8       `json:"mode_id"`
	Config core.Config `json:"config"`
	Kind   uint8       `json:"feature_kind"`
	Raw    bool        `json:"raw,omitempty"`
	Dim    uint32      `json:"dim"`
	// HasDict marks custom snapshots carrying trained-dictionary
	// sections.
	HasDict bool `json:"has_dict,omitempty"`
	// KnnK is the per-language neighbour count for kNN snapshots.
	KnnK []int32 `json:"knn_k,omitempty"`
}

// flatSource ties a flat-loaded snapshot to its backing file: the
// parsed container, the mapping whose lifetime the snapshot owns, and
// the once-guarded deferred verification state.
type flatSource struct {
	file    *flat.File
	mapping *flat.Mapping
	once    sync.Once
	err     error
	// run is the once body, pre-bound at load time so the hot path's
	// once.Do(fs.run) is a field load, not a closure allocation.
	run    func()
	closed atomic.Bool
}

// WriteFlat serialises the snapshot as a v3 flat container. A
// flat-backed snapshot is fully verified first, so corruption in a
// mapped source file cannot be laundered into a fresh file with valid
// digests.
func (s *Snapshot) WriteFlat(w io.Writer) error {
	if err := s.Verify(); err != nil {
		return err
	}
	meta := flatMeta{
		Label:  s.Describe(),
		Mode:   s.Mode(),
		ModeID: uint8(s.mode),
		Config: s.cfg,
		Kind:   uint8(s.kind),
		Raw:    s.raw,
		Dim:    s.dim,
	}
	if s.isCustom() && s.custom.TrainedDict() != nil {
		meta.HasDict = true
	}
	if s.mode == modeKNN {
		meta.KnnK = make([]int32, langid.NumLanguages)
		for li := range s.refs {
			meta.KnnK[li] = s.refs[li].k
		}
	}
	mb, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("compiled: encoding flat metadata: %w", err)
	}

	fw := flat.NewWriter('S')
	fw.Add(flat.SecMeta, -1, mb)
	if s.calib != nil {
		fw.Add(flat.SecCalib, -1, s.calib.Encode())
	}
	if s.mode != modeTLD && !s.isCustom() {
		fw.Add(flat.SecStrBlob, -1, s.table.Blob())
		fw.Add(flat.SecStrOffs, -1, flat.Uint32Bytes(s.table.Offsets()))
		fw.Add(flat.SecStrSlots, -1, flat.Uint32Bytes(s.table.Slots()))
	}
	if meta.HasDict {
		td := s.custom.TrainedDict()
		for li := 0; li < langid.NumLanguages; li++ {
			fw.Add(flat.SecDict, int32(li), flat.StringsBytes(td.Tokens(langid.Language(li))))
		}
	}
	switch s.mode {
	case modeCount, modeCountPost, modeNormalized:
		fw.Add(flat.SecWeights, -1, flat.Float64Bytes(s.weights))
		prepost := make([]float64, 2*langid.NumLanguages)
		copy(prepost, s.pre[:])
		copy(prepost[langid.NumLanguages:], s.post[:])
		fw.Add(flat.SecPrePost, -1, flat.Float64Bytes(prepost))
	case modeDTree:
		for li := range s.trees {
			t := &s.trees[li]
			fw.Add(flat.SecTreeFeat, int32(li), flat.Int32Bytes(t.feat))
			fw.Add(flat.SecTreeThr, int32(li), flat.Float64Bytes(t.thr))
			fw.Add(flat.SecTreeKids, int32(li), flat.Int32Bytes(t.kids))
		}
	case modeKNN:
		for li := range s.refs {
			r := &s.refs[li]
			fw.Add(flat.SecKnnRows, int32(li), flat.Uint32Bytes(r.rows))
			fw.Add(flat.SecKnnIdx, int32(li), flat.Uint32Bytes(r.idx))
			fw.Add(flat.SecKnnVal, int32(li), flat.Float32Bytes(r.val))
			fw.Add(flat.SecKnnPos, int32(li), r.pos)
			fw.Add(flat.SecKnnNorm, int32(li), flat.Float64Bytes(r.norm))
		}
	case modeTLD:
		for li := 0; li < langid.NumLanguages; li++ {
			fw.Add(flat.SecTLD, int32(li), flat.StringsBytes(dict.CcTLDs(langid.Language(li))))
		}
	}
	if _, err := fw.WriteTo(w); err != nil {
		return err
	}
	return nil
}

// LoadFlat builds a snapshot over a parsed v3 container. The serving
// arrays are views into f's backing bytes — nothing bulk is copied or
// decoded — so the returned snapshot is ready in microseconds
// regardless of model size, with the O(model) digest and structural
// verification deferred to the first scoring touch (see Verify).
//
// mapping may be nil when the container bytes live on the heap (Open
// from an io.Reader). When non-nil, the snapshot owns the caller's
// mapping reference on success — Close releases it — while on error the
// caller keeps ownership and must release it.
func LoadFlat(f *flat.File, mapping *flat.Mapping) (*Snapshot, error) {
	if f.Kind() != 'S' {
		return nil, fmt.Errorf("compiled: flat container kind %q is not a snapshot", f.Kind())
	}
	// The metadata section is materialised now, so it is the one section
	// verified eagerly.
	if err := f.VerifyPayload(flat.SecMeta, -1); err != nil {
		return nil, err
	}
	mb, ok := f.Payload(flat.SecMeta, -1)
	if !ok {
		return nil, fmt.Errorf("compiled: flat snapshot has no metadata section")
	}
	var meta flatMeta
	if err := json.Unmarshal(mb, &meta); err != nil {
		return nil, fmt.Errorf("compiled: decoding flat metadata: %w", err)
	}

	s := &Snapshot{cfg: meta.Config, mode: mode(meta.ModeID), kind: features.Kind(meta.Kind), raw: meta.Raw, dim: meta.Dim}
	s.pool.New = s.newScratch
	if s.mode < modeCount || s.mode > modeTLD {
		return nil, fmt.Errorf("compiled: unknown flat snapshot mode %d", meta.ModeID)
	}

	// The calibration section is optional — files written before it
	// existed load uncalibrated. Like the metadata it is small and must
	// be materialised (decoded) to be useful, so it is verified eagerly.
	if cb, ok := f.Payload(flat.SecCalib, -1); ok {
		if err := f.VerifyPayload(flat.SecCalib, -1); err != nil {
			return nil, err
		}
		c, err := calib.Decode(cb)
		if err != nil {
			return nil, fmt.Errorf("compiled: decoding calibration section: %w", err)
		}
		s.calib = c
	}

	if s.mode == modeTLD {
		if s.cfg.Algo.NeedsTraining() {
			return nil, fmt.Errorf("compiled: TLD snapshot claims trainable algorithm %s", s.cfg.Algo)
		}
		s.baseline = baselineFor(s.cfg.Algo)
		return s.attachFlat(f, mapping), nil
	}

	// Feature source.
	switch s.kind {
	case features.Words, features.Trigrams:
		blob, err := sectionBytes(f, flat.SecStrBlob, -1)
		if err != nil {
			return nil, err
		}
		offs, err := sectionUint32s(f, flat.SecStrOffs, -1)
		if err != nil {
			return nil, err
		}
		slots, err := sectionUint32s(f, flat.SecStrSlots, -1)
		if err != nil {
			return nil, err
		}
		if len(offs) != int(meta.Dim)+1 {
			return nil, fmt.Errorf("compiled: flat string table has %d offsets, want %d", len(offs), meta.Dim+1)
		}
		table, err := strtab.FromFlat(blob, offs, slots)
		if err != nil {
			return nil, fmt.Errorf("compiled: %w", err)
		}
		s.table = table
	case features.Custom, features.CustomSelected:
		// The trained dictionary cannot be consumed in place — its tokens
		// become map keys in the streaming extractor — so this is the one
		// model family whose load cost scales with (small) dictionary
		// size; the sections are digest-verified eagerly because they are
		// materialised eagerly.
		var trained *textstat.TrainedDict
		if meta.HasDict {
			var tokens [langid.NumLanguages][]string
			for li := 0; li < langid.NumLanguages; li++ {
				if err := f.VerifyPayload(flat.SecDict, int32(li)); err != nil {
					return nil, err
				}
				db, ok := f.Payload(flat.SecDict, int32(li))
				if !ok {
					return nil, fmt.Errorf("compiled: flat snapshot is missing its %s dictionary section", langid.Language(li))
				}
				toks, err := flat.Strings(db)
				if err != nil {
					return nil, err
				}
				tokens[li] = toks
			}
			trained = textstat.FromTokens(tokens)
		}
		s.custom = features.RestoreCustom(s.kind == features.CustomSelected, trained)
		if s.custom.Dim() != int(meta.Dim) {
			return nil, fmt.Errorf("compiled: custom snapshot claims %d features, layout has %d", meta.Dim, s.custom.Dim())
		}
	default:
		return nil, fmt.Errorf("compiled: unknown feature kind %d", meta.Kind)
	}

	// Model payload.
	switch s.mode {
	case modeCount, modeCountPost, modeNormalized:
		weights, err := sectionFloat64s(f, flat.SecWeights, -1)
		if err != nil {
			return nil, err
		}
		if len(weights) != int(meta.Dim)*langid.NumLanguages {
			return nil, fmt.Errorf("compiled: weight slice has %d entries, want %d",
				len(weights), int(meta.Dim)*langid.NumLanguages)
		}
		s.weights = weights
		prepost, err := sectionFloat64s(f, flat.SecPrePost, -1)
		if err != nil {
			return nil, err
		}
		if len(prepost) != 2*langid.NumLanguages {
			return nil, fmt.Errorf("compiled: pre/post section has %d entries, want %d", len(prepost), 2*langid.NumLanguages)
		}
		copy(s.pre[:], prepost[:langid.NumLanguages])
		copy(s.post[:], prepost[langid.NumLanguages:])
	case modeDTree:
		for li := range s.trees {
			feat, err := sectionInt32s(f, flat.SecTreeFeat, int32(li))
			if err != nil {
				return nil, err
			}
			thr, err := sectionFloat64s(f, flat.SecTreeThr, int32(li))
			if err != nil {
				return nil, err
			}
			kids, err := sectionInt32s(f, flat.SecTreeKids, int32(li))
			if err != nil {
				return nil, err
			}
			s.trees[li] = flatTree{feat: feat, thr: thr, kids: kids}
		}
	case modeKNN:
		if len(meta.KnnK) != langid.NumLanguages {
			return nil, fmt.Errorf("compiled: kNN snapshot metadata carries %d neighbour counts, want %d", len(meta.KnnK), langid.NumLanguages)
		}
		for li := range s.refs {
			rows, err := sectionUint32s(f, flat.SecKnnRows, int32(li))
			if err != nil {
				return nil, err
			}
			idx, err := sectionUint32s(f, flat.SecKnnIdx, int32(li))
			if err != nil {
				return nil, err
			}
			val, err := sectionFloat32s(f, flat.SecKnnVal, int32(li))
			if err != nil {
				return nil, err
			}
			pos, err := sectionBytes(f, flat.SecKnnPos, int32(li))
			if err != nil {
				return nil, err
			}
			norm, err := sectionFloat64s(f, flat.SecKnnNorm, int32(li))
			if err != nil {
				return nil, err
			}
			s.refs[li] = packedRefs{rows: rows, idx: idx, val: val, pos: flat.Uint8s(pos), norm: norm, k: meta.KnnK[li]}
		}
	}
	return s.attachFlat(f, mapping), nil
}

// attachFlat wires the deferred-verification state onto a flat-loaded
// snapshot.
func (s *Snapshot) attachFlat(f *flat.File, mapping *flat.Mapping) *Snapshot {
	fs := &flatSource{file: f, mapping: mapping}
	fs.run = func() { fs.err = s.verifyFlat() }
	s.flat = fs
	return s
}

// Verify runs the deferred payload verification of a flat-loaded
// snapshot — every section digest plus the structural invariants the
// scoring paths rely on — and reports the result. It runs the O(model)
// work at most once; later calls (and the hot path's implicit check)
// return the cached verdict. Snapshots compiled in process verify
// trivially.
func (s *Snapshot) Verify() error {
	fs := s.flat
	if fs == nil {
		return nil
	}
	fs.once.Do(fs.run)
	return fs.err
}

// ensureVerified gates the scoring paths of a flat-loaded snapshot: the
// first call pays the one-time verification pass, later calls are a
// nil check and an atomic load. Scoring a corrupt file panics with the
// verification error — hot-path methods return values, not errors — so
// servers that must not crash probe Verify once at install time.
func (s *Snapshot) ensureVerified() {
	fs := s.flat
	if fs == nil {
		return
	}
	fs.once.Do(fs.run)
	if fs.err != nil {
		panic("compiled: scoring unverified flat snapshot: " + fs.err.Error()) //urllangid:ignore hotpathalloc corruption-panic path runs at most once per snapshot, never on a healthy hot path
	}
}

// verifyFlat is the deferred verification body: all section digests,
// then the per-mode structural invariants scoring relies on.
func (s *Snapshot) verifyFlat() error {
	if err := s.flat.file.Verify(); err != nil {
		return err
	}
	switch s.mode {
	case modeCount, modeCountPost, modeNormalized, modeDTree, modeKNN:
		if !s.isCustom() {
			if err := s.table.Validate(); err != nil {
				return fmt.Errorf("compiled: %w", err)
			}
		}
		switch {
		case s.kind == features.Words:
			s.words = buildWordIndex(&s.table)
		case s.kind == features.Trigrams && !s.raw:
			s.tri = buildTrigramIndex(&s.table)
		}
	}
	switch s.mode {
	case modeDTree:
		for li := range s.trees {
			if err := s.trees[li].validate(int(s.dim)); err != nil {
				return err
			}
		}
	case modeKNN:
		for li := range s.refs {
			r := &s.refs[li]
			if err := r.validate(); err != nil {
				return err
			}
			if err := r.validateNorms(); err != nil {
				return err
			}
		}
	case modeTLD:
		// The persisted TLD tables must match the built-in dictionaries
		// the baseline classifies from, so the file cannot claim a
		// mapping the serving code would not honour.
		for li := 0; li < langid.NumLanguages; li++ {
			tb, ok := s.flat.file.Payload(flat.SecTLD, int32(li))
			if !ok {
				return fmt.Errorf("compiled: flat snapshot is missing its %s TLD section", langid.Language(li))
			}
			got, err := flat.Strings(tb)
			if err != nil {
				return err
			}
			want := dict.CcTLDs(langid.Language(li))
			if len(got) != len(want) {
				return fmt.Errorf("compiled: %s TLD section lists %d domains, built-in table has %d", langid.Language(li), len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					return fmt.Errorf("compiled: %s TLD section entry %d is %q, built-in table has %q", langid.Language(li), i, got[i], want[i])
				}
			}
		}
	}
	return nil
}

// validateNorms checks persisted norms against a recomputation over the
// packed values — the flat format stores them so load stays O(1), and
// this keeps a tampered norm from silently changing scores. Equality is exact: the writer persisted the
// very sum this loop re-accumulates, in the same order.
func (r *packedRefs) validateNorms() error {
	n := len(r.rows) - 1
	if len(r.norm) != n {
		return fmt.Errorf("compiled: kNN norms cover %d of %d references", len(r.norm), n)
	}
	for i := 0; i < n; i++ {
		var nb float64
		for _, v := range r.val[r.rows[i]:r.rows[i+1]] {
			nb += float64(v) * float64(v)
		}
		if r.norm[i] != nb {
			return fmt.Errorf("compiled: kNN reference %d norm %v does not match its values (%v)", i, r.norm[i], nb)
		}
	}
	return nil
}

// Close releases a flat-loaded snapshot's backing mapping. It must only
// be called after the last use of the snapshot — views into a released
// mapping are dangling — which in the serving stack means after the
// owning registry version has fully drained. Heap-backed snapshots
// close trivially; Close is idempotent.
func (s *Snapshot) Close() error {
	fs := s.flat
	if fs == nil || fs.mapping == nil {
		return nil
	}
	if fs.closed.Swap(true) {
		return nil
	}
	return fs.mapping.Release()
}

// Section accessors: resolve a required section and view it with the
// right element type, naming the section in every failure.

func sectionBytes(f *flat.File, typ uint32, lang int32) ([]byte, error) {
	b, ok := f.Payload(typ, lang)
	if !ok {
		return nil, fmt.Errorf("compiled: flat snapshot is missing its %s section", flat.SectionName(typ))
	}
	return b, nil
}

func sectionUint32s(f *flat.File, typ uint32, lang int32) ([]uint32, error) {
	b, err := sectionBytes(f, typ, lang)
	if err != nil {
		return nil, err
	}
	v, err := flat.Uint32s(b)
	if err != nil {
		return nil, fmt.Errorf("compiled: %s section: %w", flat.SectionName(typ), err)
	}
	return v, nil
}

func sectionInt32s(f *flat.File, typ uint32, lang int32) ([]int32, error) {
	b, err := sectionBytes(f, typ, lang)
	if err != nil {
		return nil, err
	}
	v, err := flat.Int32s(b)
	if err != nil {
		return nil, fmt.Errorf("compiled: %s section: %w", flat.SectionName(typ), err)
	}
	return v, nil
}

func sectionFloat32s(f *flat.File, typ uint32, lang int32) ([]float32, error) {
	b, err := sectionBytes(f, typ, lang)
	if err != nil {
		return nil, err
	}
	v, err := flat.Float32s(b)
	if err != nil {
		return nil, fmt.Errorf("compiled: %s section: %w", flat.SectionName(typ), err)
	}
	return v, nil
}

func sectionFloat64s(f *flat.File, typ uint32, lang int32) ([]float64, error) {
	b, err := sectionBytes(f, typ, lang)
	if err != nil {
		return nil, err
	}
	v, err := flat.Float64s(b)
	if err != nil {
		return nil, fmt.Errorf("compiled: %s section: %w", flat.SectionName(typ), err)
	}
	return v, nil
}
