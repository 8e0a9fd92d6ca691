package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(data, n=4) and statistics.median.
	for _, c := range []struct {
		data        []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 4, 1, 5}, 1, 3, 4.5},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{2.5, 1, 7, 3, 9, 4}, 2.125, 3.5, 7.5},
	} {
		q1, med, q3 := quartiles(c.data)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.data, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64, vals []float64) []float64 {
		out := make([]float64, len(vals))
		for i, v := range vals {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		name        string
		a, b        []float64
		lowerBetter bool
		want        string
	}{
		{"same runs", steady, steady, false, "unchanged"},
		{"12% less throughput", steady, scale(0.88, steady), false, "regressed"},
		{"8% less throughput, within the bound", steady, scale(0.92, steady), false, "unchanged"},
		{"12% more latency", steady, scale(1.12, steady), true, "regressed"},
		{"every run better", steady, scale(0.8, steady), true, "improved"},
		{"spread wider than the bound", []float64{60, 140, 80, 120, 100}, []float64{100, 100, 100, 100, 100}, false, "unresolved"},
		{"wide spread, every run better", []float64{60, 70, 80, 75, 65}, []float64{90, 95, 100, 92, 97}, false, "improved"},
	} {
		if got := verdict(c.a, c.b, c.lowerBetter, 0.1); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	// A bound of 0, as macro_f1 has: a value exact per commit may not
	// drop at all.
	exact := []float64{0.8311, 0.8311, 0.8311}
	for _, c := range []struct {
		b    float64
		want string
	}{{0.8311, "unchanged"}, {0.8310, "regressed"}, {0.8312, "improved"}} {
		if got := verdict(exact, []float64{c.b, c.b, c.b}, false, 0); got != c.want {
			t.Errorf("bound 0, %v → %v: verdict %q, want %q", exact[0], c.b, got, c.want)
		}
	}
}

// TestCompare runs compare over synthetic result files in the format
// the benchmark prints.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{
		"end_to_end": [
			{"name": "urls_per_s", "unit": "URLs/s", "better": "higher", "bound": 0.1},
			{"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}
		],
		"per_layer": [{"name": "serve.engine_us", "unit": "us", "better": "lower"}]
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, urlsPerS, p50, engine float64) string {
		path := filepath.Join(dir, name)
		var b strings.Builder
		fmt.Fprintf(&b, "progress line\n")
		fmt.Fprintf(&b, `{"workload":"crawl-cascade","seed":1,"trace":0,"seconds":15,"env":{}}`+"\n")
		fmt.Fprintf(&b, `{"correct":true,"attempted":10,"failed":0,"metrics":{"urls_per_s":{"value":%g,"unit":"URLs/s"},"latency_p50_ms":{"value":%g,"unit":"ms"}}}`+"\n", urlsPerS, p50)
		fmt.Fprintf(&b, `{"workload":"crawl-cascade","seed":1,"trace":1,"seconds":15,"env":{}}`+"\n")
		fmt.Fprintf(&b, `{"correct":true,"attempted":10,"failed":0,"metrics":{"serve.engine_us":{"value":%g,"unit":"us"}}}`+"\n", engine)
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var a, b []string
	for i := 0; i < 5; i++ {
		jitter := float64(i%3) - 1
		a = append(a, write(fmt.Sprintf("a%d.out", i), 200000+1000*jitter, 0.5+0.005*jitter, 280))
		// The change loses 20% throughput and keeps latency.
		b = append(b, write(fmt.Sprintf("b%d.out", i), 160000+1000*jitter, 0.5+0.005*jitter, 300))
	}
	var out bytes.Buffer
	regressed, err := compare(spec, a, b, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Error("compare did not report the throughput regression")
	}
	rows := map[string]string{}
	for _, line := range strings.Split(out.String(), "\n")[1:] {
		if f := strings.Fields(line); len(f) > 2 {
			rows[f[1]] = f[len(f)-1]
		}
	}
	want := map[string]string{"urls_per_s": "regressed", "latency_p50_ms": "unchanged", "serve.engine_us": "-"}
	for metric, v := range want {
		if rows[metric] != v {
			t.Errorf("%s: verdict %q, want %q\n%s", metric, rows[metric], v, out.String())
		}
	}
}
