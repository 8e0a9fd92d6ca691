package compiled

import (
	"math/rand/v2"
	"testing"

	"urllangid/internal/core"
	"urllangid/internal/features"
)

// TestWordIndexMatchesTable checks the word kernel's index against the
// string table it is derived from. Every vocabulary word resolves to
// its table ID, and every other token gives table.Lookup's answer:
// random tokens of 2–20 letters, and near misses of each vocabulary
// word (one letter more or less, the last letter changed, and for a
// long word its 8-byte prefix alone and with another tail), which
// cross the 8/9-byte boundary, share a word's 8-byte prefix, and
// share home slots with vocabulary words. It holds for a trained
// snapshot from FromSystem and after a flat round trip, where LoadFlat
// leaves the index to the verification pass. Every word snapshot has
// an index, and trigram, raw-trigram and custom snapshots have none.
// TestKernelsMatchRuns holds the kernel's IDs over whole URLs to the
// table's.
func TestWordIndexMatchesTable(t *testing.T) {
	train, _ := corpusEnv(t)
	snap := FromSystem(trainSystem(t, core.Config{Algo: core.NaiveBayes, Features: features.Words, Seed: 1}, train))
	loaded := reloadFlat(t, snap)
	if loaded.words != nil {
		t.Fatal("LoadFlat built the word index; open must stay O(1)")
	}
	if err := loaded.Verify(); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewPCG(23, 1))
	randWord := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.IntN(26))
		}
		return string(b)
	}
	var others []string
	for n := 2; n <= 20; n++ {
		for i := 0; i < 400; i++ {
			others = append(others, randWord(n))
		}
	}
	for id := 0; id < snap.table.Len(); id++ {
		w := snap.table.Name(uint32(id))
		last := string('a' + (w[len(w)-1]-'a'+1)%26)
		others = append(others, w+"q", w[:len(w)-1]+last)
		if len(w) > 2 {
			others = append(others, w[:len(w)-1])
		}
		if len(w) > 8 {
			others = append(others, w[:8], w[:8]+randWord(len(w)-8), w[:8]+randWord(1+rng.IntN(12)))
		}
	}

	for name, s := range map[string]*Snapshot{"FromSystem": snap, "LoadFlat": loaded} {
		ix := s.words
		if ix == nil {
			t.Fatalf("%s: word snapshot has no index", name)
		}
		if len(ix.slots) < 2*s.table.Len() || len(ix.slots)&(len(ix.slots)-1) != 0 {
			t.Fatalf("%s: %d slots for %d words", name, len(ix.slots), s.table.Len())
		}
		long := 0
		for id := 0; id < s.table.Len(); id++ {
			w := s.table.Name(uint32(id))
			if got, ok := ix.lookup(w); !ok || got != uint32(id) {
				t.Fatalf("%s: word %d (%q) resolves to (%d, %v)", name, id, w, got, ok)
			}
			if len(w) > 8 {
				long++
			}
		}
		if long == 0 {
			t.Fatalf("%s: no vocabulary word is longer than 8 bytes", name)
		}

		missed, sharedHome := 0, 0
		for _, tok := range others {
			got, ok := ix.lookup(tok)
			want, wantOK := s.table.Lookup(tok)
			if ok != wantOK || ok && got != want {
				t.Fatalf("%s: %q resolves to (%d, %v), table.Lookup gives (%d, %v)", name, tok, got, ok, want, wantOK)
			}
			if !ok {
				missed++
				if ix.slots[wordKey(tok)*wordMul>>ix.shift].id != 0 {
					sharedHome++
				}
			}
		}
		if missed < len(others)/2 || sharedHome < missed/10 {
			t.Fatalf("%s: %d of %d probe tokens missed, %d of them on an occupied home slot", name, missed, len(others), sharedHome)
		}
	}

	for _, cfg := range []core.Config{
		{Algo: core.DecisionTree, Features: features.Words, Seed: 1},
		{Algo: core.KNN, Features: features.Words, Seed: 1, KNNMaxReference: 500},
		{Algo: core.NaiveBayes, Features: features.Trigrams, Seed: 1},
		{Algo: core.NaiveBayes, Features: features.Trigrams, RawTrigrams: true, Seed: 1},
		{Algo: core.NaiveBayes, Features: features.CustomSelected, Seed: 1},
	} {
		s := FromSystem(trainSystem(t, cfg, train))
		r := reloadFlat(t, s)
		if err := r.Verify(); err != nil {
			t.Fatal(err)
		}
		want := cfg.Features == features.Words
		if (s.words != nil) != want || (r.words != nil) != want {
			t.Errorf("%s: word index built by FromSystem %v, after Verify %v; want %v", cfg.Describe(), s.words != nil, r.words != nil, want)
		}
	}
}
