package strtab

import (
	"fmt"
	"testing"
)

func TestTable(t *testing.T) {
	names := []string{"wetter", "bericht", "de", "produits", "recherche", "xy"}
	tab := New(names)
	if tab.Len() != len(names) {
		t.Fatalf("Len = %d, want %d", tab.Len(), len(names))
	}
	for i, n := range names {
		id, ok := tab.Lookup(n)
		if !ok || id != uint32(i) {
			t.Errorf("Lookup(%q) = %d, %v; want %d", n, id, ok, i)
		}
		if got := tab.Name(uint32(i)); got != n {
			t.Errorf("Name(%d) = %q, want %q", i, got, n)
		}
	}
	for _, miss := range []string{"", "wette", "wetterx", "zzz", "bericht "} {
		if _, ok := tab.Lookup(miss); ok {
			t.Errorf("Lookup(%q) unexpectedly found", miss)
		}
	}
	empty := New(nil)
	if _, ok := empty.Lookup("anything"); ok {
		t.Error("empty table found an entry")
	}
	if empty.Len() != 0 {
		t.Errorf("empty Len = %d", empty.Len())
	}
}

func TestTableDense(t *testing.T) {
	var names []string
	for i := 0; i < 5000; i++ {
		names = append(names, fmt.Sprintf("tok%dx", i))
	}
	tab := New(names)
	for i, n := range names {
		if id, ok := tab.Lookup(n); !ok || id != uint32(i) {
			t.Fatalf("Lookup(%q) = %d, %v", n, id, ok)
		}
	}
}

func TestLookupZeroAlloc(t *testing.T) {
	tab := New([]string{"wetter", "bericht", "nachrichten"})
	if avg := testing.AllocsPerRun(100, func() {
		tab.Lookup("bericht")
		tab.Lookup("missing")
	}); avg > 0 {
		t.Errorf("Lookup allocates %v per op", avg)
	}
}
