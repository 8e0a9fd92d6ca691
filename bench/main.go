// Command bench is the serving benchmark. It builds cmd/urllangid-serve
// from the checkout, trains the seeded fixture models, and for each
// workload starts the server as a child process and drives it over
// loopback with a closed loop of two clients, checking every response
// against a reference computed in-process. Windows against the server
// alternate with windows against a transport stub, with the server
// stopped, which measure the host's speed (see maxWindows). With
// -trace 1 it also replays the workload's first requests in-process,
// timing each layer.
//
// Usage, from the root of the checkout:
//
//	bash bench/run.sh [-workload name|all] [-seed n] [-seconds s] [-trace 0|1]
//	bash bench/run.sh compare A.out… -- B.out…
//
// Each workload prints two JSON lines to stdout: the run's settings and
// environment, then {"correct","attempted","failed","metrics"} with the
// end-to-end metrics. With -trace 1 a second pair follows whose metrics
// are the per-layer ones. README.md lists the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
		case "stub":
			os.Exit(stubMain(os.Args[2:], os.Stderr))
		}
	}
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

const (
	defaultSeconds = 20
	// maxWarm caps warm-up; a shorter measured phase shortens it to the
	// same length.
	maxWarm = 3 * time.Second
	// coldStarts is how many cold starts setup_s is the median of. Single
	// starts are bimodal, and their median of 9 spread 12–16% between
	// runs, against 10% for the median of 27, which takes under a second.
	coldStarts = 27
)

type options struct {
	workloads []string
	seed      uint64
	measure   time.Duration
	warm      time.Duration
	trace     bool
	root      string
	work      string
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+" or all")
	seed := fs.Uint64("seed", 41, "workload seed: order, batching and repeats of the requests")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the measured phase, in seconds")
	trace := fs.Int("trace", 1, "1 also runs the traced replay and prints the per-layer metrics; 0 prints only end-to-end metrics")
	root := fs.String("root", ".", "checkout to build urllangid-serve from")
	work := fs.String("work", "", "directory for builds, model files and spans (default <root>/.bench_build)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		return options{}, errors.New("-seconds must be positive and -trace 0 or 1")
	}
	o := options{
		workloads: []string{*workload},
		seed:      *seed,
		measure:   time.Duration(*seconds * float64(time.Second)),
		trace:     *trace == 1,
		root:      *root,
		work:      *work,
	}
	if *workload == "all" {
		o.workloads = workloadNames
	} else if !slices.Contains(workloadNames, *workload) {
		return options{}, fmt.Errorf("unknown workload %q (want one of %v or all)", *workload, workloadNames)
	}
	o.warm = min(maxWarm, o.measure)
	if o.work == "" {
		o.work = filepath.Join(o.root, ".bench_build")
	}
	return o, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// header precedes each result line and names what it measured.
type header struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Trace    int     `json:"trace"`
	Seconds  float64 `json:"seconds"`
	Env      env     `json:"env"`
}

type env struct {
	CPUs             int     `json:"cpus"`
	ClientGOMAXPROCS int     `json:"client_gomaxprocs"`
	ServerGOMAXPROCS int     `json:"server_gomaxprocs"`
	Go               string  `json:"go"`
	Commit           string  `json:"commit"`
	Kernel           string  `json:"kernel"`
	StealRatio       float64 `json:"steal_ratio"`
	// HostSpeed is the median over windows of refProbe ÷ the probe's
	// round trip: the factor, window by window, the reported throughput
	// was divided by, and latency and CPU multiplied by.
	HostSpeed float64 `json:"host_speed"`
}

func environment() env {
	e := env{
		CPUs:             runtime.NumCPU(),
		ClientGOMAXPROCS: runtime.GOMAXPROCS(0),
		// The server inherits this environment, so it runs with the
		// runtime's default unless GOMAXPROCS is set.
		ServerGOMAXPROCS: runtime.NumCPU(),
		Go:               runtime.Version(),
		Commit:           "unknown",
		Kernel:           "unknown",
	}
	if n, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && n > 0 {
		e.ServerGOMAXPROCS = n
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	return e
}

func run(args []string, stdout, stderr io.Writer) error {
	o, err := parseOptions(args, stderr)
	if err != nil {
		return err
	}
	if o.work, err = filepath.Abs(o.work); err != nil {
		return err
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return err
	}
	bin, err := buildServer(o.root, o.work)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(o.work, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fx, err := newFixture(dir)
	if err != nil {
		return err
	}
	var failed []string
	for _, name := range o.workloads {
		ok, err := runWorkload(o, fx, bin, dir, name, stdout, stderr)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if !ok {
			failed = append(failed, name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed checks on %s", strings.Join(failed, ", "))
	}
	return nil
}

// runWorkload runs one workload and prints its results. ok is false
// when a response was wrong or the workload missed its designed shape.
func runWorkload(o options, fx *fixture, bin, dir, name string, stdout, stderr io.Writer) (ok bool, err error) {
	w, err := newWorkload(name, fx, o.seed)
	if err != nil {
		return false, err
	}
	keep := w.replayCount()
	macroF, err := w.prepare(fx, keep)
	if err != nil {
		return false, err
	}

	refs := filepath.Join(dir, "stub-"+name+".refs")
	if err := writeStubRefs(refs, w); err != nil {
		return false, err
	}
	setup, err := setupTime(bin, fx, dir)
	if err != nil {
		return false, err
	}

	s, _, err := startStub(refs)
	if err != nil {
		return false, err
	}
	defer s.kill()
	probes := newLoop(s.base, probe, probe.reqs)
	defer probes.close()
	// With tracing, each probe window is followed by a chunk of the
	// replay, then a window against the stub with the workload's own
	// bodies, each answer held for the replayed handler's mean time.
	var rp *replay
	var transport []float64
	between := func(k, n int, d time.Duration) error { return nil }
	if o.trace {
		if rp, err = newReplay(fx, w, environment().ServerGOMAXPROCS); err != nil {
			return false, err
		}
		defer rp.close()
		bodies := newLoop(s.base, w, w.reqs[:keep])
		defer bodies.close()
		between = func(k, n int, d time.Duration) error {
			if err := rp.run(k*keep/n, (k+1)*keep/n); err != nil {
				return err
			}
			bodies.hold = rp.handlerMean()
			p := bodies.run(d/6, 0)
			if p.failed > 0 {
				return fmt.Errorf("transport stub: %d of %d requests failed", p.failed, p.attempted)
			}
			transport = append(transport, float64(quantile(p.latencies, 0.5)-bodies.hold)/1e3)
			return nil
		}
	}

	srv, _, err := startServer(bin, fx)
	if err != nil {
		return false, err
	}
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	l := newLoop(srv.base, w, w.reqs)
	defer l.close()
	warm := l.run(o.warm, w.warmRequests)
	// Windows hold at least ten typical requests.
	win := max(o.measure/maxWindows, 10*quantile(warm.latencies, 0.5))
	n := max(int(o.measure/win), 1)
	m, err := measure(l, probes, srv, n, o.measure/time.Duration(n), between)
	if err != nil {
		return false, err
	}
	rss, err := srv.peakRSS()
	if err != nil {
		return false, err
	}
	err = srv.stop()
	srv = nil
	if err != nil {
		return false, fmt.Errorf("stopping server: %w", err)
	}

	attempted, failed := warm.attempted+m.all.attempted, warm.failed+m.all.failed
	perURL := func(cpu time.Duration) float64 { return float64(cpu) / 1e3 / m.urls }
	e2e := map[string]metric{
		"urls_per_s":            {m.urls / m.elapsed.Seconds(), "URLs/s"},
		"latency_p50_ms":        {float64(quantile(m.latencies, 0.5)) / 1e6, "ms"},
		"server_cpu_us_per_url": {perURL(m.serverCPU), "us"},
		"server_rss_mb":         {rss, "MiB"},
		"setup_s":               {setup, "s"},
		"macro_f1":              {macroF, "ratio"},
	}
	shapeErr := checkShape(name, m.hitRatio)
	if shapeErr != nil {
		fmt.Fprintf(stderr, "%s: %v\n", name, shapeErr)
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "%s: %d of %d responses failed\n", name, failed, attempted)
	}
	e := environment()
	e.StealRatio, e.HostSpeed = m.steal, median(m.speed)
	fmt.Fprintf(stderr, "%s: %.0f URLs/s, p50 %.3f ms, server %.2f µs/URL (host speed %.2f), hit ratio %.3f, steal %.3f\n",
		name, e2e["urls_per_s"].Value, e2e["latency_p50_ms"].Value, e2e["server_cpu_us_per_url"].Value, e.HostSpeed, m.hitRatio, m.steal)
	hdr := header{Workload: name, Seed: o.seed, Seconds: o.measure.Seconds(), Env: e}
	ok = failed == 0 && shapeErr == nil
	if err := printResult(stdout, hdr, result{Correct: ok, Attempted: attempted, Failed: failed, Metrics: e2e}); err != nil {
		return false, err
	}
	if !o.trace {
		return ok, nil
	}

	open, err := openTime(fx)
	if err != nil {
		return false, err
	}
	spansPath := filepath.Join(o.work, "spans-"+name+".jsonl")
	spans := rp.tr.spans()
	if err := writeSpans(spansPath, spans); err != nil {
		return false, err
	}
	sum := summarize(spans)
	fmt.Fprintf(stderr, "%s: traced replay of %d requests, spans in %s\n", name, rp.requests, spansPath)
	printLayers(stderr, sum)

	if rp.failed > 0 {
		fmt.Fprintf(stderr, "%s: %d of %d replayed responses failed\n", name, rp.failed, rp.attempted)
	}
	attempted, failed = attempted+rp.attempted, failed+rp.failed
	ok = ok && rp.failed == 0
	perCall := func(l layer) float64 { return float64(sum[l].total) / float64(max(sum[l].calls, 1)) }
	perRequest := func(ns int64) float64 { return float64(ns) / 1e3 / float64(rp.requests) }
	handler := perRequest(sum[lHandler].total)
	layers := map[string]metric{
		"urlx.normalize_ns":        {perCall(lNormalize), "ns"},
		"urlx.tokenize_ns":         {perCall(lTokenize), "ns"},
		"strtab.lookup_ns":         {perCall(lLookup), "ns"},
		"compiled.fast_score_ns":   {perCall(lFastScore), "ns"},
		"compiled.slow_score_ns":   {perCall(lSlowScore), "ns"},
		"cascade.url_ns":           {perCall(lCascade), "ns"},
		"cascade.escalation_ratio": {float64(rp.escalated) / float64(max(rp.cascaded, 1)), "ratio"},
		"registry.acquire_ns":      {perCall(lAcquire), "ns"},
		"serve.engine_us":          {perRequest(sum[lEngine].total), "us"},
		"serve.handler_us":         {handler, "us"},
		// Handler self time. The engine spans it subtracts are a second
		// execution of the same requests (see replay), so this is a
		// difference of means over them, not a sum of nested self times.
		"serve.codec_us":         {perRequest(sum[lHandler].total - sum[lHandler].children), "us"},
		"serve.cache_hit_ratio":  {m.hitRatio, "ratio"},
		"serve.dedup_ratio":      {m.dedupRatio, "ratio"},
		"http.transport_us":      {median(transport), "us"},
		"modelfile.open_us":      {float64(open) / 1e3, "us"},
		"layers.accounted_ratio": {(median(transport) + handler) / (float64(quantile(m.all.latencies, 0.5)) / 1e3), "ratio"},
		"trace.overhead_ratio":   {rp.overhead(), "ratio"},
		"client.latency_p99_ms":  {float64(quantile(m.latencies, 0.99)) / 1e6, "ms"},
		"client.cpu_us_per_url":  {perURL(m.clientCPU), "us"},
		"env.steal_ratio":        {m.steal, "ratio"},
		// Every request this workload sent, measured and replayed. It
		// reads 0 on a healthy run, so it cannot be an end-to-end metric
		// with a bound relative to its median; a failure fails the run.
		"error_ratio": {float64(failed) / float64(attempted), "ratio"},
	}
	hdr.Trace = 1
	return ok, printResult(stdout, hdr, result{Correct: ok, Attempted: attempted, Failed: failed, Metrics: layers})
}

// maxWindows is how many windows the measured phase is split into, for
// workloads whose requests are short enough.
//
// The host's speed drifts by tens of per cent within seconds (other
// tenants' load), more than the changes the bounds must resolve: over
// ten 20 s runs per workload, uncorrected throughput, p50 and CPU per
// URL spread by 10–30% (README.md). So the server is stopped after every
// window, and the loop runs for a sixth as long against the stub's
// probe: a one-byte request between two processes, whose code never
// changes between commits. Its median round trip, set against refProbe,
// gives the host's speed in that window. The window's elapsed time, CPU
// times and latencies are multiplied by it before they are pooled over
// windows. Short windows keep the correction close in time to what it
// corrects.
const maxWindows = 45

// refProbe and refStubStart fix the unit of the correction: the reported
// figures are what the host would show if the probe's round trip took
// refProbe and the stub's cold start refStubStart, about what both took
// on the 2-vCPU VM the bounds were set on, in a quiet period.
const (
	refProbe     = 45 * time.Microsecond
	refStubStart = 3 * time.Millisecond
)

// measurement is what the measured phase observed.
type measurement struct {
	all phase // every measured request, pooled
	// Every measured request's time scaled to the reference host speed,
	// sorted.
	latencies []time.Duration
	// Correctly answered URLs, and over the same windows their elapsed
	// time and the server's and this process's CPU time, each window's
	// scaled to the reference host speed.
	urls                          float64
	elapsed, serverCPU, clientCPU time.Duration
	// Per window, the host speed: refProbe ÷ the probe's round trip.
	speed []float64
	// Over the whole phase.
	hitRatio, dedupRatio, steal float64
}

// measure runs n windows of length d against srv. After each, with the
// server stopped, it runs a window against the host-speed probe and
// calls between.
func measure(l, probes *loop, srv *server, n int, d time.Duration, between func(k, n int, d time.Duration) error) (measurement, error) {
	var m measurement
	m0, err := srv.counters()
	if err != nil {
		return m, err
	}
	st0, err := readCPUTimes()
	if err != nil {
		return m, err
	}
	for k := 0; k < n; k++ {
		cpu0, err := srv.cpu()
		if err != nil {
			return m, err
		}
		self0 := selfCPU()
		p := l.run(d, 0)
		self1 := selfCPU()
		cpu1, err := srv.cpu()
		if err != nil {
			return m, err
		}
		m.all.attempted += p.attempted
		m.all.failed += p.failed
		m.all.latencies = append(m.all.latencies, p.latencies...)
		if p.urls == 0 {
			return m, fmt.Errorf("no request answered correctly (%d of %d failed)", p.failed, p.attempted)
		}
		var pp phase
		err = whilePaused(srv, func() error {
			if pp = probes.run(d/6, 0); pp.failed > 0 {
				return fmt.Errorf("host-speed probe: %d of %d requests failed", pp.failed, pp.attempted)
			}
			return between(k, n, d)
		})
		if err != nil {
			return m, err
		}
		f := float64(refProbe) / float64(quantile(pp.latencies, 0.5))
		scale := func(d time.Duration) time.Duration { return time.Duration(float64(d) * f) }
		for _, t := range p.latencies {
			m.latencies = append(m.latencies, scale(t))
		}
		m.urls += float64(p.urls)
		m.elapsed += scale(p.elapsed)
		m.serverCPU += scale(cpu1 - cpu0)
		m.clientCPU += scale(self1 - self0)
		m.speed = append(m.speed, f)
	}
	slices.Sort(m.all.latencies)
	slices.Sort(m.latencies)
	st1, err := readCPUTimes()
	if err != nil {
		return m, err
	}
	m1, err := srv.counters()
	if err != nil {
		return m, err
	}
	served := max(m1.urls-m0.urls, 1)
	m.hitRatio = (m1.hits - m0.hits) / served
	m.dedupRatio = (m1.deduped - m0.deduped) / served
	m.steal = stealRatio(st0, st1)
	return m, nil
}

// whilePaused runs f with the server stopped, so that no work the server
// does between windows (a garbage collection, a background goroutine)
// slows the probe and passes for a slow host, or slows the stub and the
// replay. It fails if the server's CPU clock moved while it was stopped.
func whilePaused(srv *server, f func() error) error {
	if err := srv.pause(); err != nil {
		return err
	}
	cpu0, err := srv.cpu()
	if err == nil {
		err = f()
	}
	cpu1, cerr := srv.cpu()
	if rerr := srv.resume(); err == nil {
		err = rerr
	}
	switch {
	case err != nil:
		return err
	case cerr != nil:
		return cerr
	case cpu1 != cpu0:
		return fmt.Errorf("server used %v of CPU while stopped", cpu1-cpu0)
	}
	return nil
}

func median(vals []float64) float64 {
	_, med, _ := quartiles(vals)
	return med
}

// checkShape reports a workload whose cache behaviour is not the one it
// was built to exercise, which would make its numbers mean something
// else.
func checkShape(name string, hitRatio float64) error {
	switch {
	case name == streamUnique && hitRatio >= 0.01:
		return fmt.Errorf("cache hit ratio %.4f, want < 0.01: the stream must never repeat a URL the cache still holds", hitRatio)
	case name == lookupSingle && hitRatio < 0.99:
		return fmt.Errorf("cache hit ratio %.4f, want >= 0.99: warm-up must leave every pool URL cached", hitRatio)
	case name == crawlCached && math.Abs(hitRatio-crawlRepeatShare) > 0.05:
		return fmt.Errorf("cache hit ratio %.4f, want within 0.05 of the repeat share %.2f", hitRatio, crawlRepeatShare)
	}
	return nil
}

func printResult(out io.Writer, hdr header, res result) error {
	for _, v := range []any{hdr, res} {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(out, "%s\n", b); err != nil {
			return err
		}
	}
	return nil
}
