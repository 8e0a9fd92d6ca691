package obs

import (
	"strings"
	"testing"
)

// TestPrometheusGolden pins the exposition text byte-for-byte: family
// grouping, HELP/TYPE headers, label rendering, and the sparse
// cumulative histogram sample set.
func TestPrometheusGolden(t *testing.T) {
	var a, b Counter
	a.Add(3)
	b.Inc()
	var g Gauge
	g.Add(2)
	h := &Histogram{Scale: 1}
	h.Observe(1) // bucket [1,2)
	h.Observe(5) // bucket [5,6)
	h.Observe(5)
	h.Observe(200) // first sub-bucketed octave: bucket [200,202)

	var out strings.Builder
	x := NewExpoWriter(&out)
	x.Family("test_requests_total", "Total requests.", KindCounter)
	x.IntSample("test_requests_total", []Label{{Key: "path", Value: "/a"}}, a.Value())
	x.IntSample("test_requests_total", []Label{{Key: "path", Value: "/b"}}, b.Value())
	x.Family("test_in_flight", "In-flight requests.", KindGauge)
	x.IntSample("test_in_flight", nil, g.Value())
	x.Family("test_uptime_seconds", "Uptime.", KindGauge)
	x.Sample("test_uptime_seconds", nil, 41.5)
	x.Family("test_latency_seconds", "Latency.", KindHistogram)
	x.HistogramSample("test_latency_seconds", []Label{{Key: "model", Value: "nb"}}, h)
	if err := x.Flush(); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_requests_total Total requests.
# TYPE test_requests_total counter
test_requests_total{path="/a"} 3
test_requests_total{path="/b"} 1
# HELP test_in_flight In-flight requests.
# TYPE test_in_flight gauge
test_in_flight 2
# HELP test_uptime_seconds Uptime.
# TYPE test_uptime_seconds gauge
test_uptime_seconds 41.5
# HELP test_latency_seconds Latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{model="nb",le="2"} 1
test_latency_seconds_bucket{model="nb",le="6"} 3
test_latency_seconds_bucket{model="nb",le="202"} 4
test_latency_seconds_bucket{model="nb",le="+Inf"} 4
test_latency_seconds_sum{model="nb"} 211
test_latency_seconds_count{model="nb"} 4
`
	if got := out.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestPrometheusScaledHistogram checks the raw→exposed unit conversion:
// nanosecond recordings exposed as seconds.
func TestPrometheusScaledHistogram(t *testing.T) {
	h := &Histogram{Scale: 1e-9}
	h.Observe(2_000_000) // 2ms in ns
	var b strings.Builder
	x := NewExpoWriter(&b)
	x.HistogramSample("lat_seconds", nil, h)
	if err := x.Flush(); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "lat_seconds_sum 0.002") {
		t.Errorf("sum not scaled to seconds:\n%s", out)
	}
	// 2_000_000 lands in a bucket whose upper bound is ~2.01e6 ns; the
	// le label must be in seconds (~0.002), not raw nanoseconds.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "lat_seconds_bucket") && !strings.Contains(line, "+Inf") {
			if !strings.Contains(line, `le="0.0020`) {
				t.Errorf("bucket le not in seconds: %q", line)
			}
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	var b strings.Builder
	x := NewExpoWriter(&b)
	x.IntSample("esc_total", []Label{{Key: "v", Value: "a\"b\\c\nd"}}, 1)
	if err := x.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `esc_total{v="a\"b\\c\nd"} 1`) {
		t.Errorf("label not escaped:\n%s", b.String())
	}
}
