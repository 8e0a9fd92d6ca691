package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"

	"urllangid"
	"urllangid/internal/langid"
)

func TestTSVRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.tsv")
	samples := []langid.Sample{
		{URL: "http://a.de/seite", Lang: langid.German},
		{URL: "http://b.fr/page", Lang: langid.French},
	}
	if err := writeTSV(path, samples); err != nil {
		t.Fatal(err)
	}
	back, err := readTSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0] != samples[0] || back[1] != samples[1] {
		t.Errorf("round trip = %+v", back)
	}
}

func TestReadTSVSkipsCommentsAndBlanks(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.tsv")
	content := "# comment\n\nhttp://a.it/pagina\tit\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readTSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Lang != langid.Italian {
		t.Errorf("readTSV = %+v", got)
	}
}

func TestReadTSVErrors(t *testing.T) {
	dir := t.TempDir()
	bad1 := filepath.Join(dir, "bad1.tsv")
	os.WriteFile(bad1, []byte("no-tab-here\n"), 0o644)
	if _, err := readTSV(bad1); err == nil {
		t.Error("missing tab accepted")
	}
	bad2 := filepath.Join(dir, "bad2.tsv")
	os.WriteFile(bad2, []byte("http://x.com\tzz\n"), 0o644)
	if _, err := readTSV(bad2); err == nil {
		t.Error("unknown language accepted")
	}
	if _, err := readTSV(filepath.Join(dir, "missing.tsv")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestCmdCompileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	corpus := filepath.Join(dir, "c.tsv")
	samples := make([]langid.Sample, 0, 400)
	for i := 0; i < 80; i++ {
		samples = append(samples,
			langid.Sample{URL: fmt.Sprintf("http://www.wetter-seite%d.de/bericht%d", i, i), Lang: langid.German},
			langid.Sample{URL: fmt.Sprintf("http://www.recherche%d.fr/produit%d", i, i), Lang: langid.French},
			langid.Sample{URL: fmt.Sprintf("http://www.weather%d.com/report%d", i, i), Lang: langid.English},
			langid.Sample{URL: fmt.Sprintf("http://www.tienda%d.es/oferta%d", i, i), Lang: langid.Spanish},
			langid.Sample{URL: fmt.Sprintf("http://www.notizie%d.it/calcio%d", i, i), Lang: langid.Italian},
		)
	}
	if err := writeTSV(corpus, samples); err != nil {
		t.Fatal(err)
	}
	model := filepath.Join(dir, "m.model")
	if err := cmdTrain([]string{"-in", corpus, "-model", model}); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, "m.snapshot")
	if err := cmdCompile([]string{"-model", model, "-out", snapPath}); err != nil {
		t.Fatal(err)
	}
	clf, err := loadModel(model)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := urllangid.LoadSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Compiled() {
		t.Error("CLI-compiled snapshot is not in packed form")
	}
	u := "http://www.wetter-bericht.de/heute"
	if clf.Classify(u) != snap.Classify(u) {
		t.Fatal("CLI snapshot classification differs from model")
	}
	if err := cmdCompile([]string{"-model", filepath.Join(dir, "missing"), "-out", snapPath}); err == nil {
		t.Error("compile accepted a missing model")
	}
}

// TestCompileReportModes pins the compile subcommand's report: every
// configuration compiles natively and the report names the mode the
// snapshot took.
func TestCompileReportModes(t *testing.T) {
	samples := make([]langid.Sample, 0, 500)
	for i := 0; i < 100; i++ {
		samples = append(samples,
			langid.Sample{URL: fmt.Sprintf("http://www.wetter-seite%d.de/bericht%d", i, i), Lang: langid.German},
			langid.Sample{URL: fmt.Sprintf("http://www.recherche%d.fr/produit%d", i, i), Lang: langid.French},
			langid.Sample{URL: fmt.Sprintf("http://www.weather%d.com/report%d", i, i), Lang: langid.English},
			langid.Sample{URL: fmt.Sprintf("http://www.tienda%d.es/oferta%d", i, i), Lang: langid.Spanish},
			langid.Sample{URL: fmt.Sprintf("http://www.notizie%d.it/calcio%d", i, i), Lang: langid.Italian},
		)
	}
	cases := []struct {
		opts urllangid.Options
		want string
	}{
		{urllangid.Options{Seed: 1}, "compiled NB/word snapshot [linear mode]"},
		{urllangid.Options{Seed: 1, Features: urllangid.CustomFeatures}, "compiled NB/custom snapshot [custom mode]"},
		{urllangid.Options{Seed: 1, Algorithm: urllangid.DecisionTree, Features: urllangid.CustomFeatures}, "compiled DT/custom snapshot [dtree mode]"},
		{urllangid.Options{Seed: 1, Algorithm: urllangid.KNN}, "compiled kNN/word snapshot [knn mode]"},
		{urllangid.Options{Algorithm: urllangid.CcTLDPlus}, "compiled ccTLD+ snapshot [tld mode]"},
	}
	for _, tc := range cases {
		train := samples
		if tc.opts.Algorithm == urllangid.CcTLD || tc.opts.Algorithm == urllangid.CcTLDPlus {
			train = nil
		}
		clf, err := urllangid.Train(tc.opts, train)
		if err != nil {
			t.Fatal(err)
		}
		if got := compileReport(clf.Compile()); got != tc.want {
			t.Errorf("compileReport = %q, want %q", got, tc.want)
		}
	}
}

func TestParseOptions(t *testing.T) {
	opts, err := parseOptions("trigram", "re", 7)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Features != urllangid.TrigramFeatures || opts.Algorithm != urllangid.RelativeEntropy || opts.Seed != 7 {
		t.Errorf("parseOptions = %+v", opts)
	}
	if _, err := parseOptions("nope", "nb", 0); err == nil {
		t.Error("bad feature accepted")
	}
	if _, err := parseOptions("word", "nope", 0); err == nil {
		t.Error("bad algorithm accepted")
	}
	for _, algo := range []string{"nb", "re", "me", "dt", "knn", "cctld", "cctld+"} {
		if _, err := parseOptions("custom", algo, 0); err != nil {
			t.Errorf("algo %q rejected: %v", algo, err)
		}
	}
}

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = orig }()
	runErr := fn()
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

// inspectSnapshotFile trains a tiny model and saves its compiled
// snapshot (the flat v3 container) to a file.
func inspectSnapshotFile(t *testing.T, dir string) string {
	t.Helper()
	samples := []langid.Sample{
		{URL: "http://www.wetter-bericht.de/heute", Lang: langid.German},
		{URL: "http://www.weather-report.com/today", Lang: langid.English},
		{URL: "http://www.meteo-bulletin.fr/jour", Lang: langid.French},
		{URL: "http://www.tiempo-parte.es/hoy", Lang: langid.Spanish},
		{URL: "http://www.meteo-notizie.it/oggi", Lang: langid.Italian},
	}
	clf, err := urllangid.Train(urllangid.Options{}, samples)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "m.snapshot")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := clf.Compile().Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCmdInspect pins the inspect subcommand on a healthy flat
// snapshot: container version, metadata, the section directory, the
// -verify pass and the -json form.
func TestCmdInspect(t *testing.T) {
	dir := t.TempDir()
	path := inspectSnapshotFile(t, dir)

	out, err := captureStdout(t, func() error { return cmdInspect([]string{path}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"version:  3", "kind:     compiled snapshot", "mode:     linear", "sections:", "weights", "strtab-blob"} {
		if !strings.Contains(out, want) {
			t.Errorf("inspect output missing %q:\n%s", want, out)
		}
	}

	out, err = captureStdout(t, func() error { return cmdInspect([]string{"-verify", path}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "verify:   ok") {
		t.Errorf("inspect -verify did not report ok:\n%s", out)
	}

	out, err = captureStdout(t, func() error { return cmdInspect([]string{"-json", path}) })
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Version  byte `json:"version"`
		Sections []struct {
			Name string `json:"name"`
		} `json:"sections"`
	}
	if err := json.Unmarshal([]byte(out), &report); err != nil {
		t.Fatalf("inspect -json emitted invalid JSON: %v\n%s", err, out)
	}
	if report.Version != 3 || len(report.Sections) == 0 {
		t.Errorf("inspect -json report = %+v", report)
	}

	if err := cmdInspect([]string{filepath.Join(dir, "missing")}); err == nil {
		t.Error("inspect accepted a missing file")
	}
	if err := cmdInspect([]string{}); err == nil {
		t.Error("inspect accepted zero arguments")
	}
}

// TestCmdInspectCorrupt pins inspect's failure modes: truncation and
// header/directory corruption fail immediately, while payload
// corruption beyond the metadata — invisible to the lazy open — is
// caught by -verify.
func TestCmdInspectCorrupt(t *testing.T) {
	dir := t.TempDir()
	path := inspectSnapshotFile(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	trunc := filepath.Join(dir, "trunc.snapshot")
	if err := os.WriteFile(trunc, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := captureStdout(t, func() error { return cmdInspect([]string{trunc}) }); err == nil {
		t.Error("inspect accepted a truncated file")
	}

	badDir := filepath.Join(dir, "baddir.snapshot")
	mut := append([]byte(nil), data...)
	mut[70] ^= 0xff // inside the section directory
	if err := os.WriteFile(badDir, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := captureStdout(t, func() error { return cmdInspect([]string{badDir}) }); err == nil {
		t.Error("inspect accepted a corrupt section directory")
	}

	badPay := filepath.Join(dir, "badpay.snapshot")
	mut = append([]byte(nil), data...)
	mut[len(mut)-1] ^= 0xff // inside the last payload, far from the metadata
	if err := os.WriteFile(badPay, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := captureStdout(t, func() error { return cmdInspect([]string{badPay}) }); err != nil {
		t.Errorf("plain inspect rejected payload corruption it should not read: %v", err)
	}
	if _, err := captureStdout(t, func() error { return cmdInspect([]string{"-verify", badPay}) }); err == nil {
		t.Error("inspect -verify accepted a corrupt payload")
	}

	// A classifier in the retired version-1 container names the command
	// that rewrites it.
	trainTSV, _ := calibCorpus(t, dir)
	model := filepath.Join(dir, "m.model")
	if err := cmdTrain([]string{"-in", trainTSV, "-model", model}); err != nil {
		t.Fatal(err)
	}
	v1, err := os.ReadFile(model)
	if err != nil {
		t.Fatal(err)
	}
	v1[8] = 1 // the container version byte follows the 8-byte magic
	v1Path := filepath.Join(dir, "v1.model")
	if err := os.WriteFile(v1Path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := captureStdout(t, func() error { return cmdInspect([]string{v1Path}) }); err == nil || !strings.Contains(err.Error(), `"urllangid train"`) {
		t.Errorf("inspect of a version-1 classifier = %v, want an error naming urllangid train", err)
	}
}

// calibCorpus writes a train and a held-out TSV into dir and returns
// their paths. The split keeps the calibration fit on data the model
// never saw, as the compile -calibrate contract requires.
func calibCorpus(t *testing.T, dir string) (train, heldOut string) {
	t.Helper()
	mk := func(name string, lo, hi int) string {
		samples := make([]langid.Sample, 0, (hi-lo)*5)
		for i := lo; i < hi; i++ {
			samples = append(samples,
				langid.Sample{URL: fmt.Sprintf("http://www.wetter-seite%d.de/bericht%d", i, i), Lang: langid.German},
				langid.Sample{URL: fmt.Sprintf("http://www.recherche%d.fr/produit%d", i, i), Lang: langid.French},
				langid.Sample{URL: fmt.Sprintf("http://www.weather%d.com/report%d", i, i), Lang: langid.English},
				langid.Sample{URL: fmt.Sprintf("http://www.tienda%d.es/oferta%d", i, i), Lang: langid.Spanish},
				langid.Sample{URL: fmt.Sprintf("http://www.notizie%d.it/calcio%d", i, i), Lang: langid.Italian},
			)
		}
		path := filepath.Join(dir, name)
		if err := writeTSV(path, samples); err != nil {
			t.Fatal(err)
		}
		return path
	}
	return mk("train.tsv", 0, 80), mk("heldout.tsv", 80, 120)
}

// TestCmdCompileCalibrate pins the -calibrate path end to end: the
// held-out TSV fits a calibration into the snapshot, the report line
// summarises the fit, and inspect grows a cascade stanza in both text
// and JSON form.
func TestCmdCompileCalibrate(t *testing.T) {
	dir := t.TempDir()
	trainTSV, heldOut := calibCorpus(t, dir)
	model := filepath.Join(dir, "m.model")
	if err := cmdTrain([]string{"-in", trainTSV, "-model", model}); err != nil {
		t.Fatal(err)
	}

	snapPath := filepath.Join(dir, "cal.snapshot")
	if err := cmdCompile([]string{"-model", model, "-out", snapPath, "-threshold", "0.85"}); err == nil {
		t.Error("compile accepted -threshold without -calibrate")
	}
	out, err := captureStdout(t, func() error {
		return cmdCompile([]string{"-model", model, "-out", snapPath, "-calibrate", heldOut, "-threshold", "0.85"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "calibrated on 200 held-out samples") {
		t.Errorf("compile -calibrate report missing fit summary:\n%s", out)
	}
	if err := cmdCompile([]string{"-model", model, "-out", snapPath, "-calibrate", filepath.Join(dir, "missing.tsv")}); err == nil {
		t.Error("compile accepted a missing calibration TSV")
	}

	out, err = captureStdout(t, func() error { return cmdInspect([]string{snapPath}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"calib", "cascade:", "calibration:", "threshold:   0.85"} {
		if !strings.Contains(out, want) {
			t.Errorf("inspect output missing %q:\n%s", want, out)
		}
	}

	out, err = captureStdout(t, func() error { return cmdInspect([]string{"-json", snapPath}) })
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Cascade *struct {
			Points    int     `json:"points"`
			Threshold float64 `json:"threshold"`
			MinMargin float64 `json:"min_margin"`
			MaxMargin float64 `json:"max_margin"`
		} `json:"cascade"`
	}
	if err := json.Unmarshal([]byte(out), &report); err != nil {
		t.Fatalf("inspect -json emitted invalid JSON: %v\n%s", err, out)
	}
	if report.Cascade == nil {
		t.Fatalf("inspect -json has no cascade stanza:\n%s", out)
	}
	if report.Cascade.Points < 1 || report.Cascade.Threshold != 0.85 || report.Cascade.MinMargin > report.Cascade.MaxMargin {
		t.Errorf("inspect -json cascade = %+v", *report.Cascade)
	}

	f, err := os.Open(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := urllangid.LoadSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	ci, ok := snap.Calibration()
	if !ok || ci.Threshold != 0.85 {
		t.Errorf("loaded snapshot calibration = %+v, %v", ci, ok)
	}
}

// TestCmdInspectUncalibrated pins backward compatibility: a v3 file
// compiled without -calibrate simply lacks the calib section — it keeps
// loading and classifying, and inspect shows no cascade stanza.
func TestCmdInspectUncalibrated(t *testing.T) {
	dir := t.TempDir()
	trainTSV, _ := calibCorpus(t, dir)
	model := filepath.Join(dir, "m.model")
	if err := cmdTrain([]string{"-in", trainTSV, "-model", model}); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, "plain.snapshot")
	if err := cmdCompile([]string{"-model", model, "-out", snapPath}); err != nil {
		t.Fatal(err)
	}

	out, err := captureStdout(t, func() error { return cmdInspect([]string{snapPath}) })
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "cascade:") {
		t.Errorf("uncalibrated snapshot grew a cascade stanza:\n%s", out)
	}
	out, err = captureStdout(t, func() error { return cmdInspect([]string{"-json", snapPath}) })
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, `"cascade"`) {
		t.Errorf("uncalibrated -json report has a cascade key:\n%s", out)
	}

	f, err := os.Open(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := urllangid.LoadSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := snap.Calibration(); ok {
		t.Error("uncalibrated snapshot reports a calibration")
	}
	if got, _, ok := snap.Classify("http://www.wetter-bericht.de/heute").Best(); !ok || got != urllangid.German {
		t.Errorf("uncalibrated snapshot Classify = %v, %v", got, ok)
	}
}

// TestCompileOverOpenSnapshot pins the redeploy contract: compiling to
// the path a process has open and mapped replaces the file by rename,
// so the open snapshot keeps its old bytes and answers exactly as
// before. A rewrite in place would change those answers, or fault on
// pages past the new end of file; SetPanicOnFault turns such a fault
// into a panic this test recovers and reports.
func TestCompileOverOpenSnapshot(t *testing.T) {
	dir := t.TempDir()
	trainTSV, _ := calibCorpus(t, dir)
	nb, tld := filepath.Join(dir, "nb.model"), filepath.Join(dir, "tld.model")
	if err := cmdTrain([]string{"-in", trainTSV, "-model", nb}); err != nil {
		t.Fatal(err)
	}
	if err := cmdTrain([]string{"-algo", "cctld", "-model", tld}); err != nil {
		t.Fatal(err)
	}
	live := filepath.Join(dir, "live.snapshot")
	if err := cmdCompile([]string{"-model", nb, "-out", live}); err != nil {
		t.Fatal(err)
	}
	m, err := urllangid.OpenFile(live)
	if err != nil {
		t.Fatal(err)
	}
	snap := m.(*urllangid.Snapshot)
	defer snap.Close()
	if err := snap.Verify(); err != nil {
		t.Fatal(err)
	}
	probes := []string{
		"http://www.wetter-seite7.de/bericht7",
		"http://www.recherche3.fr/produit3",
		"http://www.weather5.com/report5",
		"http://www.tienda9.es/oferta9",
		"http://www.notizie2.it/calcio2",
	}
	before := make([]urllangid.Result, len(probes))
	for i, u := range probes {
		before[i] = snap.Classify(u)
	}

	if err := cmdCompile([]string{"-model", tld, "-out", live}); err != nil {
		t.Fatal(err)
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	for i, u := range probes {
		got, fault := func() (r urllangid.Result, fault any) {
			defer func() { fault = recover() }()
			return snap.Classify(u), nil
		}()
		if fault != nil {
			t.Fatalf("open snapshot faulted after its file was recompiled: %v", fault)
		}
		if got != before[i] {
			t.Errorf("Classify(%q) changed after its file was recompiled: %v, was %v", u, got.Scores(), before[i].Scores())
		}
	}
}
