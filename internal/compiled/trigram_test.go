package compiled

import (
	"bytes"
	"testing"

	"urllangid/internal/core"
	"urllangid/internal/features"
	"urllangid/internal/modelfile/flat"
)

// reloadFlat writes snap as a flat container and loads it back,
// unverified.
func reloadFlat(t *testing.T, snap *Snapshot) *Snapshot {
	t.Helper()
	var buf bytes.Buffer
	if err := snap.WriteFlat(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := flat.Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFlat(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// TestTrigramIndexMatchesTable checks the trigram kernel's index
// against the string table it is derived from, over all 27³ codes: each
// resolves to the ID table.Lookup gives its three bytes, or to none. It
// holds for a trained snapshot from FromSystem and after a flat round
// trip, where LoadFlat leaves the index to the verification pass. Word
// and raw-trigram snapshots build no index.
func TestTrigramIndexMatchesTable(t *testing.T) {
	train, _ := corpusEnv(t)
	snap := FromSystem(trainSystem(t, core.Config{Algo: core.NaiveBayes, Features: features.Trigrams, Seed: 1}, train))
	loaded := reloadFlat(t, snap)
	if loaded.tri != nil {
		t.Fatal("LoadFlat built the trigram index; open must stay O(1)")
	}
	if err := loaded.Verify(); err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Snapshot{"FromSystem": snap, "LoadFlat": loaded} {
		if s.tri == nil {
			t.Fatalf("%s: trigram snapshot has no index", name)
		}
		resolved := 0
		for code := 0; code < trigramCodes; code++ {
			g := string([]byte{trigramAlphabet[code/729], trigramAlphabet[code/27%27], trigramAlphabet[code%27]})
			want, ok := s.table.Lookup(g)
			if got := s.tri[code]; ok && got != want+1 || !ok && got != 0 {
				t.Fatalf("%s: code %d (%q) indexes %d, table.Lookup gives (%d, %v)", name, code, g, got, want, ok)
			}
			if ok {
				resolved++
			}
		}
		if resolved != s.table.Len() {
			t.Fatalf("%s: %d of %d vocabulary trigrams are in the index", name, resolved, s.table.Len())
		}
	}

	for _, cfg := range []core.Config{
		{Algo: core.NaiveBayes, Features: features.Words, Seed: 1},
		{Algo: core.NaiveBayes, Features: features.Trigrams, RawTrigrams: true, Seed: 1},
	} {
		s := FromSystem(trainSystem(t, cfg, train))
		r := reloadFlat(t, s)
		if err := r.Verify(); err != nil {
			t.Fatal(err)
		}
		if s.tri != nil || r.tri != nil {
			t.Errorf("%s built a trigram index", cfg.Describe())
		}
	}
}
