package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the transport stub, which the
// benchmark starts by executing itself with "stub".
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "stub" {
		os.Exit(stubMain(os.Args[2:], os.Stderr))
	}
	os.Exit(m.Run())
}

// TestBenchmark runs every workload and the traced replay with 300 ms
// phases and checks what they print against BENCHMARK.json.
func TestBenchmark(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the server and runs every workload")
	}
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-seconds", "0.3", "-trace", "1", "-root", "..", "-work", work}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.Bytes())
	}

	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not a JSON object: %v", err)
	}
	keys := make([]string, 0, len(last))
	for k := range last {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !slices.Equal(keys, want) {
		t.Errorf("last line has keys %v, want %v", keys, want)
	}

	// Each workload prints a header and result for its end-to-end
	// metrics (trace 0), then for its per-layer metrics (trace 1).
	results := make(map[string][2]*result)
	for i := 0; i+1 < len(lines); i += 2 {
		var h header
		var r result
		if err := json.Unmarshal([]byte(lines[i]), &h); err != nil {
			t.Fatalf("header line %d: %v", i, err)
		}
		if err := json.Unmarshal([]byte(lines[i+1]), &r); err != nil {
			t.Fatalf("result line %d: %v", i+1, err)
		}
		pair := results[h.Workload]
		pair[h.Trace] = &r
		results[h.Workload] = pair
	}
	for _, name := range workloadNames {
		pair := results[name]
		for trace, metrics := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
			r := pair[trace]
			if r == nil {
				t.Errorf("%s: no trace %d result", name, trace)
				continue
			}
			if r.Attempted < 1 || r.Failed != 0 || !r.Correct {
				t.Errorf("%s trace %d: correct %v, %d of %d failed; want an error ratio of 0", name, trace, r.Correct, r.Failed, r.Attempted)
			}
			if m, ok := r.Metrics["error_ratio"]; ok && m.Value != 0 {
				t.Errorf("%s: error_ratio %v, want 0", name, m.Value)
			}
			for _, ms := range metrics {
				m, ok := r.Metrics[ms.Name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s missing", name, ms.Name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: metric %s = %v", name, ms.Name, m.Value)
				case m.Unit != ms.Unit:
					t.Errorf("%s: metric %s has unit %q, want %q", name, ms.Name, m.Unit, ms.Unit)
				}
			}
			if len(r.Metrics) != len(metrics) {
				t.Errorf("%s trace %d: %d metrics, BENCHMARK.json names %d", name, trace, len(r.Metrics), len(metrics))
			}
		}
		checkSpans(t, filepath.Join(work, "spans-"+name+".jsonl"))
	}
}

// checkSpans parses a spans file and checks that every span lasts at
// least as long as the children that ran inside it: its self time is
// not negative. Children replayed in a later pass do not run inside
// their parent, so the self time over them is a difference between
// passes, reported but not checked.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Error(err)
		return
	}
	defer f.Close()
	var spans []spanJSON
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s spanJSON
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if s.EndNs < s.StartNs || s.ID != int32(len(spans)+1) || s.Parent < 0 || s.Parent >= s.ID {
			t.Fatalf("%s: malformed span %+v", path, s)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Errorf("%s: no spans", path)
	}
	inside := make(map[int32]int64) // span id → time of its children inside it
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		if p := spans[s.Parent-1]; s.StartNs >= p.StartNs && s.EndNs <= p.EndNs {
			inside[s.Parent] += s.EndNs - s.StartNs
		}
	}
	if len(inside) == 0 {
		t.Errorf("%s: no span ran inside its parent", path)
	}
	for id, ns := range inside {
		if p := spans[id-1]; ns > p.EndNs-p.StartNs {
			t.Errorf("%s: span %d (%s) has self time %dns", path, id, p.Name, p.EndNs-p.StartNs-ns)
		}
	}
}
