// Command urllangid-serve is the production serving front end: it loads
// one or more models (compiled snapshots or saved classifiers, which
// are compiled on the fly) into a versioned registry and serves
// classification over HTTP with parallel batching, a sharded result
// cache, multi-model routing and zero-downtime hot-reload.
//
// Endpoints:
//
//	POST /v1/classify              JSON {"url": "..."} or {"urls": [...]};
//	                               ?model=name routes off the default
//	POST /v1/stream                NDJSON in, NDJSON out — bulk crawl
//	                               frontiers; ?model=name routes
//	GET  /v1/models                live model versions and the default
//	GET  /v1/models/{name}/stats   one model's serving metrics
//	POST /v1/models/{name}/reload  re-open the model's file, swap if
//	                               changed
//	GET  /healthz                  liveness + default model identity
//	GET  /readyz                   readiness: 503 until every model slot
//	                               can serve
//	GET  /stats                    default model's serving metrics
//	GET  /metrics                  Prometheus text exposition (HTTP tier
//	                               and per-model families)
//
// Example:
//
//	urllangid train -in corpus-train.tsv -model nb.model
//	urllangid compile -model nb.model -out nb.snapshot
//	urllangid-serve -model nb=nb.snapshot -model exp=tri.snapshot -addr :8080 -cache 1048576
//
//	curl -s localhost:8080/v1/classify -d '{"urls": ["http://www.wetter.de/bericht"]}'
//	curl -s localhost:8080/v1/classify?model=exp -d '{"url": "http://www.wetter.de/bericht"}'
//	curl -s localhost:8080/v1/models
//	curl -s -X POST localhost:8080/v1/models/nb/reload    # after redeploying nb.snapshot
//	seq 1 1000 | sed 's|.*|http://www.seite-&.de/artikel|' | \
//	    curl -s --data-binary @- localhost:8080/v1/stream
//
// -model is repeatable and takes name=path (a bare path uses the file's
// base name, so "-model nb.snapshot" serves as "nb"); the first -model
// is the default route. -cascade name=fast,slow[,threshold] serves a
// two-tier confidence cascade over two -model slots: the fast tier
// answers every URL and low-confidence or confusable answers are
// re-scored by the slow tier (see the urllangid.Registry.InstallCascade
// docs). Reloading a tier file swaps a new version into every cascade
// over it, which the next request gets, and /v1/models/{name}/stats on
// a cascade reports its escalation rate. Redeploying a model is
// atomic and drops no traffic: overwrite its file, then either POST its
// reload endpoint or send the process SIGHUP to reload every model
// whose file changed — in-flight requests finish on the old model while
// new ones route to the new version.
//
// Compiled snapshots cache results under the structural URL normal form
// (urlx package doc): scheme, case and percent-encoding variants of one
// URL share a single cache entry. /stats reports latency percentiles,
// read off a histogram with one sample per engine call (a request's
// batch or a stream chunk, cache hits included), and a recent-QPS
// figure over the last ten *complete* seconds.
//
// -slow-log DURATION enables per-stage request tracing: requests slower
// than the threshold are counted in /metrics and logged (sampled to
// about one line per second) with their engine → respond breakdown.
// -debug-addr serves net/http/pprof and expvar on a second listener,
// kept off the public address so profiling endpoints are never exposed
// to traffic-facing networks.
//
// The process shuts down gracefully on SIGINT/SIGTERM, draining
// in-flight requests before exiting.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"urllangid/internal/calib"
	"urllangid/internal/cascade"
	"urllangid/internal/registry"
	"urllangid/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "urllangid-serve:", err)
		os.Exit(1)
	}
}

// modelArg is one parsed -model flag.
type modelArg struct {
	name, path string
}

// cascadeArg is one parsed -cascade flag.
type cascadeArg struct {
	name, fast, slow string
	threshold        float64
}

// parseCascadeArg splits a -cascade value: "name=fast,slow" or
// "name=fast,slow,threshold". The tier names must match -model slots;
// the threshold is the escalation cut (0 or omitted selects the
// default, 0.9).
func parseCascadeArg(v string) (cascadeArg, error) {
	name, spec, ok := strings.Cut(v, "=")
	if !ok {
		return cascadeArg{}, fmt.Errorf("-cascade %q: want name=fast,slow[,threshold]", v)
	}
	name = strings.TrimSpace(name)
	parts := strings.Split(spec, ",")
	if name == "" || len(parts) < 2 || len(parts) > 3 {
		return cascadeArg{}, fmt.Errorf("-cascade %q: want name=fast,slow[,threshold]", v)
	}
	c := cascadeArg{name: name, fast: strings.TrimSpace(parts[0]), slow: strings.TrimSpace(parts[1])}
	if c.fast == "" || c.slow == "" {
		return cascadeArg{}, fmt.Errorf("-cascade %q: want name=fast,slow[,threshold]", v)
	}
	if len(parts) == 3 {
		th, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
		if err != nil || th < 0 || th > 1 {
			return cascadeArg{}, fmt.Errorf("-cascade %q: threshold must be a number in [0, 1]", v)
		}
		c.threshold = th
	}
	if strings.ContainsAny(c.name, "/?#%") {
		return cascadeArg{}, fmt.Errorf("-cascade name %q: names route in URLs and cannot contain '/', '?', '#' or '%%'", c.name)
	}
	return c, nil
}

// thresholdOrDefault reports the effective escalation cut for logging:
// 0 means the flag omitted it and the cascade default applies.
func (c cascadeArg) thresholdOrDefault() float64 {
	if c.threshold <= 0 {
		return calib.DefaultThreshold
	}
	return c.threshold
}

// parseModelArg splits a -model value: "name=path", or a bare path
// whose base name (extension stripped) becomes the serving name.
// Either way the name must be URL-routable.
func parseModelArg(v string) (modelArg, error) {
	var m modelArg
	if name, path, ok := strings.Cut(v, "="); ok {
		name, path = strings.TrimSpace(name), strings.TrimSpace(path)
		if name == "" || path == "" {
			return modelArg{}, fmt.Errorf("-model %q: want name=path", v)
		}
		m = modelArg{name: name, path: path}
	} else {
		v = strings.TrimSpace(v)
		if v == "" {
			return modelArg{}, errors.New("-model: empty value")
		}
		base := filepath.Base(v)
		name := strings.TrimSuffix(base, filepath.Ext(base))
		if name == "" || name == "." || name == string(filepath.Separator) {
			return modelArg{}, fmt.Errorf("-model %q: cannot derive a model name; use name=path", v)
		}
		m = modelArg{name: name, path: v}
	}
	// Names route as ?model= values and /v1/models/{name}/... path
	// segments; these bytes would be cut or mis-matched there.
	if strings.ContainsAny(m.name, "/?#%") {
		return modelArg{}, fmt.Errorf("-model name %q: names route in URLs and cannot contain '/', '?', '#' or '%%'; use name=path to pick a clean name", m.name)
	}
	return m, nil
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("urllangid-serve", flag.ExitOnError)
	var models []modelArg
	fs.Func("model", "model to serve, as name=path or a bare path (repeatable; first is the default route)", func(v string) error {
		m, err := parseModelArg(v)
		if err != nil {
			return err
		}
		models = append(models, m)
		return nil
	})
	var cascades []cascadeArg
	fs.Func("cascade", "two-tier cascade to serve, as name=fast,slow[,threshold] over -model slot names (repeatable)", func(v string) error {
		c, err := parseCascadeArg(v)
		if err != nil {
			return err
		}
		cascades = append(cascades, c)
		return nil
	})
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "batch worker count per model (0 = GOMAXPROCS)")
	cacheCap := fs.Int("cache", 1<<20, "result cache capacity in entries per model; a cached URL costs 104-136 bytes plus the URL (0 disables)")
	maxBatch := fs.Int("max-batch", serve.DefaultMaxBatch, "largest /v1/classify batch accepted")
	drain := fs.Duration("drain", 10*time.Second, "graceful shutdown drain window")
	slowLog := fs.Duration("slow-log", 0, "trace requests and log those slower than this, with per-stage timings (0 disables)")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof and expvar on this extra address (empty disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(models) == 0 {
		return errors.New("provide at least one -model name=path")
	}
	// A duplicate name would silently replace the earlier load while the
	// startup log claims both are serving.
	seen := make(map[string]string, len(models))
	for _, m := range models {
		if prev, dup := seen[m.name]; dup {
			return fmt.Errorf("model name %q given twice (%s and %s); name one of them explicitly with -model name=path", m.name, prev, m.path)
		}
		seen[m.name] = m.path
	}
	for _, c := range cascades {
		if prev, dup := seen[c.name]; dup {
			return fmt.Errorf("cascade name %q collides with model %s", c.name, prev)
		}
		seen[c.name] = "(cascade)"
	}

	reg := registry.New(registry.Options{Engine: serve.Options{
		Workers:       *workers,
		CacheCapacity: *cacheCap,
	}})
	defer reg.Close()
	for _, m := range models {
		info, err := reg.LoadFile(m.name, m.path)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "loaded %s: %s (%s snapshot, version %d, digest %.12s) from %s\n",
			info.Name, info.Model, info.Mode, info.Version, info.Digest, info.Path)
	}
	for _, c := range cascades {
		info, err := reg.InstallCascade(c.name, c.fast, c.slow, cascade.Config{Threshold: c.threshold})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "installed %s: %s (threshold %.2f)\n", info.Name, info.Model, c.thresholdOrDefault())
	}
	handler := serve.NewHandler(reg, serve.HandlerOptions{
		MaxBatch: *maxBatch,
		SlowLog:  *slowLog,
	})

	fmt.Fprintf(out, "serving %d model(s) on %s (default %s) — cache %d entries per model, cascades uncached; SIGHUP reloads changed model files\n",
		len(reg.Names()), *addr, models[0].name, *cacheCap)

	// The debug listener is separate from the serving address on
	// purpose: pprof and expvar expose internals (and CPU profiling can
	// be made expensive), so they bind where the operator says — a
	// loopback or admin network — never the traffic port.
	if *debugAddr != "" {
		dbg := &http.Server{
			Addr:              *debugAddr,
			Handler:           debugHandler(),
			ReadHeaderTimeout: 5 * time.Second,
		}
		defer dbg.Close()
		go func() {
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(out, "debug listener: %v\n", err)
			}
		}()
		fmt.Fprintf(out, "debug endpoints (pprof, expvar) on %s\n", *debugAddr)
	}

	// SIGHUP → reload every file-backed model whose content changed.
	// Unchanged files are digest-compared no-ops, so an operator can
	// HUP after any partial redeploy without churning the other slots.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			reloadAll(reg, out)
		}
	}()

	server := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- server.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(out, "shutting down, draining in-flight requests")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := server.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("graceful shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// debugHandler builds the -debug-addr mux: the standard pprof profile
// set plus expvar. An explicit mux rather than http.DefaultServeMux so
// nothing else a dependency may have registered globally leaks onto
// the debug port.
func debugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

// reloadAll re-opens every slot's backing file, logging per slot. A
// failed reload (file vanished, corrupt redeploy) keeps the running
// version serving — reload never downgrades availability. A cascade
// has no file to re-open and is passed over: reloading its tiers
// swaps in a new cascade version by itself.
func reloadAll(reg *registry.Registry, out io.Writer) {
	for _, name := range reg.Names() {
		info, changed, err := reg.Reload(name)
		switch {
		case errors.Is(err, serve.ErrNotReloadable):
			// a cascade: nothing to re-open, nothing to report
		case err != nil:
			fmt.Fprintf(out, "SIGHUP reload %s: %v (still serving the loaded version)\n", name, err)
		case changed:
			fmt.Fprintf(out, "SIGHUP reload %s: now %s version %d (digest %.12s)\n",
				name, info.Model, info.Version, info.Digest)
		default:
			fmt.Fprintf(out, "SIGHUP reload %s: unchanged (version %d)\n", name, info.Version)
		}
	}
}
