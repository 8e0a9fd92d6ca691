package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// The transport stub is this program re-executed as
// `bench stub -addr A -refs F`: an HTTP server in a process of its own,
// as the real server is. It answers
//
//   - GET /readyz with 200, once it serves;
//   - POST /probe by draining the body and answering "ok": the host-speed
//     probe (see maxWindows);
//   - any other POST by draining the body and answering with the
//     reference response F holds for it, once holdHeader's nanoseconds
//     have passed since the request arrived. The closed loop's median
//     request time against it, less the hold, is a request's HTTP cost
//     between two processes, without any of the server's work.

// holdHeader carries the time the stub spins on each request before it
// answers: the replayed handler's mean time. A server busy for that long
// keeps the client waiting that long, and a client that waits longer
// pays more to sleep and wake again; the stub's spinning also takes a
// CPU from the client as the server's work does.
const holdHeader = "X-Bench-Hold-Ns"

// probe is the host-speed probe's traffic: one byte to /probe.
var probe = &workload{
	name: "probe", path: "/probe", contentType: "text/plain",
	reqs: []request{{body: []byte("x"), sum: maphash.Bytes(refSeed, probeAnswer)}},
}

var probeAnswer = []byte("ok")

// startStub starts a stub serving the refs file, and returns it with the
// time from exec until it answered its readiness probe.
func startStub(refs string) (*server, time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	s, d, err := startProcess(self, func(addr string) []string {
		return []string{"stub", "-addr", addr, "-refs", refs}
	})
	if err != nil {
		return nil, 0, fmt.Errorf("transport stub: %w", err)
	}
	return s, d, nil
}

// writeStubRefs writes each kept request body and its reference, each as
// a uvarint length and the bytes.
func writeStubRefs(path string, w *workload) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	var n [binary.MaxVarintLen64]byte
	for i, ref := range w.refs {
		for _, b := range [][]byte{w.reqs[i].body, ref} {
			bw.Write(n[:binary.PutUvarint(n[:], uint64(len(b)))])
			bw.Write(b)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readStubRefs(path string) (map[string][]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	refs := make(map[string][]byte)
	next := func() ([]byte, error) {
		n, k := binary.Uvarint(data)
		if k <= 0 || uint64(len(data)-k) < n {
			return nil, errors.New("truncated stub refs file")
		}
		b := data[k : k+int(n)]
		data = data[k+int(n):]
		return b, nil
	}
	for len(data) > 0 {
		body, err := next()
		if err != nil {
			return nil, err
		}
		ref, err := next()
		if err != nil {
			return nil, err
		}
		refs[string(body)] = ref
	}
	return refs, nil
}

// stubMain serves until SIGTERM or SIGINT.
func stubMain(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench stub", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:0", "listen address")
	refsPath := fs.String("refs", "", "file of request bodies and reference responses")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	refs, err := readStubRefs(*refsPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench stub:", err)
		return 1
	}
	bufs := sync.Pool{New: func() any { return new(bytes.Buffer) }}
	srv := &http.Server{
		Addr:              *addr,
		ReadHeaderTimeout: 5 * time.Second,
		Handler: http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			t0 := time.Now()
			if r.Method == http.MethodGet { // the readiness probe
				return
			}
			if r.URL.Path == probe.path {
				io.Copy(io.Discard, r.Body)
				rw.Write(probeAnswer)
				return
			}
			buf := bufs.Get().(*bytes.Buffer)
			defer bufs.Put(buf)
			buf.Reset()
			_, err := buf.ReadFrom(r.Body)
			ref, ok := refs[string(buf.Bytes())]
			if err != nil || !ok {
				http.Error(rw, "unknown request", http.StatusInternalServerError)
				return
			}
			if hold, err := strconv.ParseInt(r.Header.Get(holdHeader), 10, 64); err == nil {
				for time.Since(t0) < time.Duration(hold) {
				}
			}
			rw.Header().Set("Content-Type", "application/json")
			rw.Write(ref)
		}),
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err = <-errc:
	case <-ctx.Done():
		err = srv.Close()
		<-errc
	}
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(stderr, "bench stub:", err)
		return 1
	}
	return 0
}
