package analysis

import (
	"path/filepath"
	"sort"
	"testing"
)

// loadedFileNames flattens the base names of every file the loader
// handed to the type-checker.
func loadedFileNames(mod *Module, pkgs []*Package) []string {
	var names []string
	for _, p := range pkgs {
		for _, f := range p.Files {
			names = append(names, filepath.Base(mod.Fset.Position(f.Pos()).Filename))
		}
	}
	sort.Strings(names)
	return names
}

// TestLoadFileSelection pins the loader's file-selection contract
// against the loader corpus, which contains one ordinary file, one
// build-tag-excluded file (redeclaring a symbol, so wrong inclusion
// breaks type-checking), one in-package _test.go, and one external
// test package file.
func TestLoadFileSelection(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a testdata package")
	}

	t.Run("default", func(t *testing.T) {
		mod, pkgs, err := Load("", "./testdata/src/loader")
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		got := loadedFileNames(mod, pkgs)
		want := []string{"loader.go"}
		if len(got) != 1 || got[0] != want[0] {
			t.Errorf("default file set = %v, want %v (no ignored files, no test files)", got, want)
		}
	})
}
