// Package strtab provides the allocation-free string table the serving
// layers key everything on: a set of unique names mapped to dense IDs
// through open addressing with linear probing at ≤50% load. All names
// live in one contiguous byte blob addressed by an offset slice — no
// per-entry string headers, no pointer chasing — and lookups compare
// candidate slots against the blob directly, so resolving a token (or a
// dictionary word) costs a hash, a probe and a byte comparison, never a
// heap allocation.
//
// The table started life as the compiled snapshot's private token table;
// it is shared here so the feature extractors' dictionaries (lexicons,
// city lists, trained dictionaries) resolve through the same technique
// on the streaming extraction path.
package strtab

import "fmt"

// Table maps unique strings to their position in the construction list.
// The zero value is an empty table. Tables are immutable after
// construction and safe for concurrent use.
type Table struct {
	mask  uint32
	slots []uint32 // name ID + 1; 0 marks an empty slot
	blob  []byte
	offs  []uint32 // len(offs) == n+1; name i is blob[offs[i]:offs[i+1]]
}

// New builds a table over names, whose positions become the IDs. Names
// must be unique; a duplicate would shadow its later occurrences.
func New(names []string) Table {
	size := 0
	for _, s := range names {
		size += len(s)
	}
	t := Table{
		blob: make([]byte, 0, size),
		offs: make([]uint32, len(names)+1),
	}
	for i, s := range names {
		t.offs[i] = uint32(len(t.blob))
		t.blob = append(t.blob, s...)
	}
	t.offs[len(names)] = uint32(len(t.blob))
	t.rebuild()
	return t
}

// rebuild populates the probe slots from blob/offs.
func (t *Table) rebuild() {
	n := len(t.offs) - 1
	if n <= 0 {
		t.mask, t.slots = 0, nil
		return
	}
	sz := 1
	for sz < 2*n {
		sz <<= 1
	}
	t.mask = uint32(sz - 1)
	t.slots = make([]uint32, sz)
	for id := 0; id < n; id++ {
		name := t.Name(uint32(id))
		for i := fnv1a(name) & t.mask; ; i = (i + 1) & t.mask {
			if t.slots[i] == 0 {
				t.slots[i] = uint32(id) + 1
				break
			}
		}
	}
}

// Len returns the number of entries.
func (t *Table) Len() int {
	if len(t.offs) == 0 {
		return 0
	}
	return len(t.offs) - 1
}

// Name returns entry id's string. It allocates (the table stores bytes,
// not string headers) and is meant for construction and diagnostics;
// lookups compare against the blob directly.
func (t *Table) Name(id uint32) string {
	return string(t.blob[t.offs[id]:t.offs[id+1]])
}

// Blob exposes the backing byte blob for persistence. The returned
// slice must not be modified.
func (t *Table) Blob() []byte { return t.blob }

// Offsets exposes the offset slice for persistence. The returned slice
// must not be modified.
func (t *Table) Offsets() []uint32 { return t.offs }

// Slots exposes the probe slot array for persistence. Unlike Blob and
// Offsets it is derived state — New builds it from them — but
// persisting it lets a flat container restore the table without the
// O(n) rebuild: the stored buckets are probed in place (FromFlat). The
// returned slice must not be modified.
func (t *Table) Slots() []uint32 { return t.slots }

// FromFlat restores a table over persisted blob/offset/slot storage —
// typically views into a mapped model file — without copying or
// rebuilding anything. Only O(1) shape checks run here, keeping model
// open time independent of vocabulary size; the O(n) structural checks
// live in Validate, which flat loaders run on first scoring touch
// alongside payload digest verification. Until Validate has passed,
// Lookup on the table is unsafe.
func FromFlat(blob []byte, offs, slots []uint32) (Table, error) {
	n := len(offs) - 1
	if len(offs) == 0 {
		if len(blob) != 0 || len(slots) != 0 {
			return Table{}, fmt.Errorf("strtab: empty offsets with %d blob bytes and %d slots", len(blob), len(slots))
		}
		return Table{}, nil
	}
	if n == 0 {
		if len(slots) != 0 {
			return Table{}, fmt.Errorf("strtab: empty table carries %d slots", len(slots))
		}
		return Table{blob: blob, offs: offs}, nil
	}
	if len(slots) == 0 || len(slots)&(len(slots)-1) != 0 {
		return Table{}, fmt.Errorf("strtab: slot count %d is not a power of two", len(slots))
	}
	if len(slots) < 2*n {
		return Table{}, fmt.Errorf("strtab: %d slots for %d entries exceeds the 50%% load bound", len(slots), n)
	}
	return Table{mask: uint32(len(slots) - 1), blob: blob, offs: offs, slots: slots}, nil
}

// Validate runs the O(n) structural checks FromFlat deferred: monotonic
// offsets ending at the blob length, every slot either empty or naming
// a real entry, and every entry reachable from its own slot — after
// which Lookup can probe the persisted buckets safely and with exactly
// the answers a rebuilt table would give.
func (t *Table) Validate() error {
	n := t.Len()
	for i := 1; i < len(t.offs); i++ {
		if t.offs[i] < t.offs[i-1] {
			return fmt.Errorf("strtab: table offsets not monotonic at %d", i)
		}
	}
	if n > 0 && int(t.offs[n]) != len(t.blob) {
		return fmt.Errorf("strtab: table blob has %d bytes, offsets claim %d", len(t.blob), t.offs[n])
	}
	if n == 0 {
		return nil
	}
	filled := 0
	for i, sl := range t.slots {
		if sl == 0 {
			continue
		}
		if sl > uint32(n) {
			return fmt.Errorf("strtab: slot %d names entry %d of %d", i, sl-1, n)
		}
		filled++
	}
	if filled != n {
		return fmt.Errorf("strtab: %d filled slots for %d entries", filled, n)
	}
	// Every entry must be reachable by its own probe sequence, exactly
	// as Lookup walks it; a permuted or misplaced slot array would
	// otherwise make valid keys silently miss.
	for id := 0; id < n; id++ {
		name := t.Name(uint32(id))
		if got, ok := t.Lookup(name); !ok || got != uint32(id) {
			return fmt.Errorf("strtab: entry %d is not reachable from its probe sequence", id)
		}
	}
	return nil
}

// Lookup resolves s to its ID without allocating.
//
//urllangid:hotpath
func (t *Table) Lookup(s string) (uint32, bool) {
	if len(t.slots) == 0 {
		return 0, false
	}
	for i := fnv1a(s) & t.mask; ; i = (i + 1) & t.mask {
		sl := t.slots[i]
		if sl == 0 {
			return 0, false
		}
		id := sl - 1
		a, b := t.offs[id], t.offs[id+1]
		if int(b-a) == len(s) && string(t.blob[a:b]) == s {
			return id, true
		}
	}
}

// fnv1a is the 32-bit FNV-1a hash.
func fnv1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
