// Command urllangid trains, evaluates and serves URL language
// classifiers.
//
// Subcommands:
//
//	generate  synthesise a labeled URL corpus (TSV: url<TAB>lang)
//	train     train a classifier from a TSV corpus and save the model
//	compile   flatten a saved model into a serving snapshot
//	classify  classify URLs from arguments or stdin
//	eval      evaluate a saved model on a labeled TSV corpus
//	serve     HTTP classification service (GET /classify?url=...)
//	inspect   print a model file's container version, metadata and
//	          (for flat v3 files) its section directory, without
//	          decoding any model payload
//
// Model files are self-describing: classify, eval and serve open either
// a trained model or a compiled snapshot (urllangid.Open picks the kind
// from the header), so a serving snapshot can be evaluated directly.
//
// Example session:
//
//	urllangid generate -kind odp -train-per-lang 20000 -out corpus
//	urllangid train -in corpus-train.tsv -model nb-words.model
//	urllangid compile -model nb-words.model -out nb-words.snapshot
//	urllangid classify -model nb-words.model http://www.wasserbett-test.com
//	urllangid eval -model nb-words.model -in corpus-test.tsv
//	urllangid serve -model nb-words.model -addr :8080
//
// For production serving use cmd/urllangid-serve, which loads a compiled
// snapshot and adds batching, caching and streaming endpoints.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"urllangid"
	"urllangid/internal/datagen"
	"urllangid/internal/evalx"
	"urllangid/internal/langid"
	"urllangid/internal/modelfile"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "generate":
		err = cmdGenerate(os.Args[2:])
	case "train":
		err = cmdTrain(os.Args[2:])
	case "compile":
		err = cmdCompile(os.Args[2:])
	case "classify":
		err = cmdClassify(os.Args[2:])
	case "eval":
		err = cmdEval(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "inspect":
		err = cmdInspect(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "urllangid: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "urllangid:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: urllangid <generate|train|compile|classify|eval|serve|inspect> [flags]")
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	kindName := fs.String("kind", "odp", "corpus kind: odp, ser, wc")
	trainPerLang := fs.Int("train-per-lang", 20000, "training URLs per language (ignored for wc)")
	testPerLang := fs.Int("test-per-lang", 1000, "test URLs per language")
	seed := fs.Uint64("seed", 1, "generator seed")
	out := fs.String("out", "corpus", "output prefix; writes <out>-train.tsv and <out>-test.tsv")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var kind datagen.Kind
	switch strings.ToLower(*kindName) {
	case "odp":
		kind = datagen.ODP
	case "ser":
		kind = datagen.SER
	case "wc":
		kind = datagen.WC
	default:
		return fmt.Errorf("unknown corpus kind %q", *kindName)
	}
	ds := datagen.Generate(datagen.Config{
		Kind: kind, Seed: *seed,
		TrainPerLang: *trainPerLang, TestPerLang: *testPerLang,
	})
	if err := writeTSV(*out+"-train.tsv", ds.Train); err != nil {
		return err
	}
	if err := writeTSV(*out+"-test.tsv", ds.Test); err != nil {
		return err
	}
	fmt.Printf("wrote %d training and %d test URLs (%s)\n", len(ds.Train), len(ds.Test), kind)
	return nil
}

func writeTSV(path string, samples []langid.Sample) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range samples {
		fmt.Fprintf(w, "%s\t%s\n", s.URL, s.Lang.Code())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readTSV(path string) ([]langid.Sample, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var samples []langid.Sample
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		url, code, ok := strings.Cut(line, "\t")
		if !ok {
			return nil, fmt.Errorf("%s:%d: expected url<TAB>lang", path, lineNo)
		}
		lang, err := langid.Parse(code)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, lineNo, err)
		}
		samples = append(samples, langid.Sample{URL: url, Lang: lang})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return samples, nil
}

func parseOptions(featName, algoName string, seed uint64) (urllangid.Options, error) {
	opts := urllangid.Options{Seed: seed}
	switch strings.ToLower(featName) {
	case "word", "words":
		opts.Features = urllangid.WordFeatures
	case "trigram", "trigrams":
		opts.Features = urllangid.TrigramFeatures
	case "custom":
		opts.Features = urllangid.CustomFeatures
	case "custom74":
		opts.Features = urllangid.CustomFeaturesAll
	default:
		return opts, fmt.Errorf("unknown feature set %q", featName)
	}
	switch strings.ToLower(algoName) {
	case "nb":
		opts.Algorithm = urllangid.NaiveBayes
	case "re":
		opts.Algorithm = urllangid.RelativeEntropy
	case "me":
		opts.Algorithm = urllangid.MaximumEntropy
	case "dt":
		opts.Algorithm = urllangid.DecisionTree
	case "knn":
		opts.Algorithm = urllangid.KNN
	case "cctld":
		opts.Algorithm = urllangid.CcTLD
	case "cctld+":
		opts.Algorithm = urllangid.CcTLDPlus
	default:
		return opts, fmt.Errorf("unknown algorithm %q", algoName)
	}
	return opts, nil
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	in := fs.String("in", "", "labeled TSV corpus (url<TAB>lang)")
	modelPath := fs.String("model", "urllangid.model", "output model file")
	featName := fs.String("features", "word", "feature set: word, trigram, custom, custom74")
	algoName := fs.String("algo", "nb", "algorithm: nb, re, me, dt, knn, cctld, cctld+")
	seed := fs.Uint64("seed", 1, "training seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts, err := parseOptions(*featName, *algoName, *seed)
	if err != nil {
		return err
	}
	var samples []langid.Sample
	if *in != "" {
		if samples, err = readTSV(*in); err != nil {
			return err
		}
	}
	start := time.Now()
	clf, err := urllangid.Train(opts, samples)
	if err != nil {
		return err
	}
	if err := modelfile.WriteFile(*modelPath, clf.Save); err != nil {
		return err
	}
	fmt.Printf("trained %s on %d samples in %v -> %s\n",
		clf.Describe(), len(samples), time.Since(start).Round(time.Millisecond), *modelPath)
	return nil
}

func cmdCompile(args []string) error {
	fs := flag.NewFlagSet("compile", flag.ExitOnError)
	modelPath := fs.String("model", "urllangid.model", "input model file (from train)")
	out := fs.String("out", "urllangid.snapshot", "output snapshot file")
	calibrate := fs.String("calibrate", "", "held-out labeled TSV; fit a margin→probability calibration into the snapshot for cascade serving")
	threshold := fs.Float64("threshold", 0, "escalation threshold recorded with the calibration (0 selects the default, 0.9)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	clf, err := loadClassifier(*modelPath)
	if err != nil {
		return err
	}
	snap := clf.Compile()
	if *calibrate != "" {
		heldOut, err := readTSV(*calibrate)
		if err != nil {
			return err
		}
		ci, err := snap.Calibrate(heldOut, *threshold)
		if err != nil {
			return err
		}
		fmt.Printf("calibrated on %d held-out samples: top-1 accuracy %.3f, %d blocks over margins [%.3f, %.3f], threshold %.2f\n",
			ci.Samples, ci.Accuracy, ci.Points, ci.MinMargin, ci.MaxMargin, ci.Threshold)
	} else if *threshold != 0 {
		return fmt.Errorf("compile: -threshold needs -calibrate")
	}
	if err := modelfile.WriteFile(*out, snap.Save); err != nil {
		return err
	}
	info, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("%s (%d bytes) -> %s\n", compileReport(snap), info.Size(), *out)
	return nil
}

// compileReport names the snapshot and the compiled mode it took —
// every configuration compiles natively (linear, custom, dtree, knn or
// tld), so the report says which scorer a server will actually run.
func compileReport(snap *urllangid.Snapshot) string {
	return fmt.Sprintf("compiled %s snapshot [%s mode]", snap.Describe(), snap.Mode())
}

// loadModel opens a model file of either kind — trained classifier or
// compiled snapshot — through the self-describing header.
func loadModel(path string) (urllangid.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return urllangid.Open(f)
}

// loadClassifier opens a model file that must hold a trained classifier
// (Load reports the detected kind when handed a snapshot).
func loadClassifier(path string) (*urllangid.Classifier, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return urllangid.Load(f)
}

func cmdClassify(args []string) error {
	fs := flag.NewFlagSet("classify", flag.ExitOnError)
	modelPath := fs.String("model", "urllangid.model", "model file")
	scores := fs.Bool("scores", false, "print per-language scores")
	if err := fs.Parse(args); err != nil {
		return err
	}
	clf, err := loadModel(*modelPath)
	if err != nil {
		return err
	}
	classify := func(url string) {
		r := clf.Classify(url)
		if *scores {
			fmt.Printf("%s:\n", url)
			for _, p := range r.Predictions() {
				mark := " "
				if p.Positive {
					mark = "+"
				}
				fmt.Printf("  %s %-8s %+.3f\n", mark, p.Lang, p.Score)
			}
			return
		}
		langs := r.Languages()
		codes := make([]string, len(langs))
		for i, l := range langs {
			codes[i] = l.Code()
		}
		if len(codes) == 0 {
			codes = []string{"-"}
		}
		fmt.Printf("%s\t%s\n", url, strings.Join(codes, ","))
	}
	if fs.NArg() > 0 {
		for _, url := range fs.Args() {
			classify(url)
		}
		return nil
	}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		if url := strings.TrimSpace(sc.Text()); url != "" {
			classify(url)
		}
	}
	return sc.Err()
}

func cmdEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	modelPath := fs.String("model", "urllangid.model", "model file")
	in := fs.String("in", "", "labeled TSV corpus")
	if err := fs.Parse(args); err != nil {
		return err
	}
	clf, err := loadModel(*modelPath)
	if err != nil {
		return err
	}
	samples, err := readTSV(*in)
	if err != nil {
		return err
	}
	var counts [langid.NumLanguages]evalx.Counts
	for _, s := range samples {
		r := clf.Classify(s.URL)
		for li := 0; li < langid.NumLanguages; li++ {
			l := langid.Language(li)
			counts[li].Observe(s.Lang == l, r.Is(l))
		}
	}
	var sumF float64
	for li := 0; li < langid.NumLanguages; li++ {
		r := evalx.ResultFrom(langid.Language(li), counts[li])
		fmt.Println(r)
		sumF += r.F
	}
	fmt.Printf("macro-F %.3f over %d URLs\n", sumF/float64(langid.NumLanguages), len(samples))
	return nil
}

// classifyResponse is the JSON shape of the serve endpoint.
type classifyResponse struct {
	URL       string            `json:"url"`
	Languages []string          `json:"languages"`
	Scores    map[string]string `json:"scores"`
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	modelPath := fs.String("model", "urllangid.model", "model file")
	addr := fs.String("addr", ":8080", "listen address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	clf, err := loadModel(*modelPath)
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /classify", func(w http.ResponseWriter, r *http.Request) {
		url := r.URL.Query().Get("url")
		if url == "" {
			http.Error(w, "missing url parameter", http.StatusBadRequest)
			return
		}
		resp := classifyResponse{URL: url, Scores: make(map[string]string)}
		for _, p := range clf.Classify(url).Predictions() {
			if p.Positive {
				resp.Languages = append(resp.Languages, p.Lang.Code())
			}
			resp.Scores[p.Lang.Code()] = fmt.Sprintf("%+.3f", p.Score)
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(resp); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	fmt.Printf("serving %s on %s\n", clf.Describe(), *addr)
	server := &http.Server{Addr: *addr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	return server.ListenAndServe()
}

// inspectOut is the -json shape of cmdInspect: the modelfile report
// plus the path it describes.
type inspectOut struct {
	Path string `json:"path"`
	Kind string `json:"kind"`
	*modelfile.Info
	Cascade *cascadeInfo `json:"cascade,omitempty"`
}

// cascadeInfo describes the snapshot's calibration section — the
// cascade-serving confidence layer. Present only for v3 files compiled
// with -calibrate; older files simply lack the section and serve
// uncalibrated.
type cascadeInfo struct {
	Points    int     `json:"points"`
	Threshold float64 `json:"threshold"`
	MinMargin float64 `json:"min_margin"`
	MaxMargin float64 `json:"max_margin"`
}

// readCascadeInfo decodes the calibration section when the directory
// lists one. It opens the model payload, which InspectFile alone
// deliberately avoids — callers gate it on the section's presence.
func readCascadeInfo(path string, info *modelfile.Info) (*cascadeInfo, error) {
	present := false
	for _, s := range info.Sections {
		if s.Name == "calib" {
			present = true
			break
		}
	}
	if !present {
		return nil, nil
	}
	om, err := modelfile.OpenPath(path)
	if err != nil {
		return nil, err
	}
	if om.Snap == nil {
		return nil, nil
	}
	defer om.Snap.Close()
	c := om.Snap.Calibration()
	if c == nil {
		return nil, nil
	}
	lo, hi := c.Range()
	return &cascadeInfo{
		Points:    c.Len(),
		Threshold: c.Threshold(),
		MinMargin: lo,
		MaxMargin: hi,
	}, nil
}

func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the report as JSON")
	verify := fs.Bool("verify", false, "additionally open the model and verify every payload digest and structural invariant")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("inspect: want exactly one model file argument")
	}
	path := fs.Arg(0)

	info, err := modelfile.InspectFile(path)
	if err != nil {
		return fmt.Errorf("inspect %s: %w", path, err)
	}
	casc, err := readCascadeInfo(path, info)
	if err != nil {
		return fmt.Errorf("inspect %s: %w", path, err)
	}
	if *asJSON {
		out := inspectOut{Path: path, Kind: modelfile.KindName(info.Kind), Info: info, Cascade: casc}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return err
		}
	} else {
		fmt.Printf("file:     %s\n", path)
		fmt.Printf("version:  %d\n", info.Version)
		fmt.Printf("kind:     %s\n", modelfile.KindName(info.Kind))
		if m := info.Meta; m != nil {
			if m.Label != "" {
				fmt.Printf("model:    %s\n", m.Label)
			}
			if m.Mode != "" {
				fmt.Printf("mode:     %s\n", m.Mode)
			}
			fmt.Printf("digest:   %s\n", m.Digest)
			fmt.Printf("payload:  %d bytes\n", m.PayloadBytes)
		}
		if len(info.Sections) > 0 {
			fmt.Printf("sections: %d\n", len(info.Sections))
			for _, s := range info.Sections {
				lang := "-"
				if s.Lang >= 0 && int(s.Lang) < langid.NumLanguages {
					lang = langid.Language(s.Lang).Code()
				}
				fmt.Printf("  %-12s %-4s off=%-8d len=%-8d sha256=%s\n",
					s.Name, lang, s.Off, s.Len, s.Digest)
			}
		}
		if casc != nil {
			fmt.Printf("cascade:\n")
			fmt.Printf("  calibration: %d blocks over margins [%.3f, %.3f]\n",
				casc.Points, casc.MinMargin, casc.MaxMargin)
			fmt.Printf("  threshold:   %.2f\n", casc.Threshold)
		}
	}

	if *verify {
		om, err := modelfile.OpenPath(path)
		if err != nil {
			return fmt.Errorf("inspect %s: %w", path, err)
		}
		if om.Snap != nil {
			err = om.Snap.Verify()
			om.Snap.Close()
			if err != nil {
				return fmt.Errorf("inspect %s: %w", path, err)
			}
		}
		fmt.Println("verify:   ok")
	}
	return nil
}
