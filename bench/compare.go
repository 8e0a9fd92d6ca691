package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json compare reads.
type benchmarkSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadSpec(path string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// runKey names one row of a comparison.
type runKey struct{ workload, metric string }

// readRuns collects every metric value from benchmark output files: each
// header line names the workload of the result line after it.
func readRuns(paths []string) (map[runKey][]float64, error) {
	vals := make(map[runKey][]float64)
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		workload := ""
		for sc.Scan() {
			var line struct {
				Workload *string           `json:"workload"`
				Metrics  map[string]metric `json:"metrics"`
			}
			if json.Unmarshal(sc.Bytes(), &line) != nil {
				continue // progress or other non-JSON output
			}
			if line.Workload != nil {
				workload = *line.Workload
			}
			if line.Metrics != nil && workload != "" {
				for name, m := range line.Metrics {
					k := runKey{workload, name}
					vals[k] = append(vals[k], m.Value)
				}
			}
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return vals, nil
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(data, n=4) and statistics.median do.
func quartiles(vals []float64) (q1, med, q3 float64) {
	d := slices.Clone(vals)
	slices.Sort(d)
	n := len(d)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	if n%2 == 1 {
		med = d[n/2]
	} else {
		med = (d[n/2-1] + d[n/2]) / 2
	}
	// The "exclusive" method: positions i(n+1)/4, clamped to the data.
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), med, q(3)
}

// verdict classifies a change B against a baseline A for one metric. A
// change is a regression when B's median is worse than A's by more than
// bound. Otherwise it is unresolved when A's own spread is wider than
// the bound, unless every run of B beats every run of A; improved when B
// is better than A by more than A's spread and wins at least nine
// tenths of the paired runs; and unchanged otherwise.
func verdict(a, b []float64, lowerBetter bool, bound float64) string {
	aq1, am, aq3 := quartiles(a)
	_, bm, _ := quartiles(b)
	better := func(x, y float64) bool { // x better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	gain := (bm - am) / math.Abs(am) // > 0 is better
	if lowerBetter {
		gain = -gain
	}
	spread := (aq3 - aq1) / math.Abs(am)
	allBetter := slices.Min(b) > slices.Max(a)
	if lowerBetter {
		allBetter = slices.Max(b) < slices.Min(a)
	}
	switch {
	case gain < -bound:
		return "regressed"
	case spread > bound && !allBetter:
		return "unresolved"
	case gain > spread && (allBetter || pairWins(a, b, better) >= 0.9):
		return "improved"
	default:
		return "unchanged"
	}
}

// pairWins is the share of runs B wins against the A run of the same
// index, for alternated runs; 0 when the sets differ in size.
func pairWins(a, b []float64, better func(x, y float64) bool) float64 {
	if len(a) != len(b) {
		return 0
	}
	wins := 0
	for i := range a {
		if better(b[i], a[i]) {
			wins++
		}
	}
	return float64(wins) / float64(len(a))
}

// compareMain implements `bench compare A… -- B…`: per workload and
// metric, the median and quartiles of A's runs and of B's, and for each
// end-to-end metric a verdict against its BENCHMARK.json bound. It
// exits 1 when any metric regressed.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("benchmark", "BENCHMARK.json", "file naming the metrics and their bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rest := fs.Args()
	sep := slices.Index(rest, "--")
	if sep < 1 || sep == len(rest)-1 {
		fmt.Fprintln(stderr, "usage: bench compare [-benchmark BENCHMARK.json] A.out… -- B.out…")
		return 2
	}
	regressed, err := compare(*specPath, rest[:sep], rest[sep+1:], stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	if regressed {
		return 1
	}
	return 0
}

func compare(specPath string, aPaths, bPaths []string, out io.Writer) (regressed bool, err error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readRuns(aPaths)
	if err != nil {
		return false, err
	}
	b, err := readRuns(bPaths)
	if err != nil {
		return false, err
	}
	var workloads []string
	for k := range a {
		if !slices.Contains(workloads, k.workload) {
			workloads = append(workloads, k.workload)
		}
	}
	slices.Sort(workloads)
	if len(workloads) == 0 {
		return false, errors.New("no results in the A files")
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median\tA q1–q3\tB median\tB q1–q3\tchange\tbound\tverdict\t")
	for _, wl := range workloads {
		for i, m := range append(slices.Clone(spec.EndToEnd), spec.PerLayer...) {
			av, bv := a[runKey{wl, m.Name}], b[runKey{wl, m.Name}]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			aq1, am, aq3 := quartiles(av)
			bq1, bm, bq3 := quartiles(bv)
			bound, v := "-", "-"
			if i < len(spec.EndToEnd) && m.Bound != nil {
				bound = fmt.Sprintf("%.1f%%", 100**m.Bound)
				v = verdict(av, bv, m.Better == "lower", *m.Bound)
				regressed = regressed || v == "regressed"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g–%.4g\t%.4g\t%.4g–%.4g\t%+.1f%%\t%s\t%s\t\n",
				wl, m.Name, m.Unit, am, aq1, aq3, bm, bq1, bq3, 100*(bm-am)/math.Abs(am), bound, v)
		}
	}
	return regressed, tw.Flush()
}
