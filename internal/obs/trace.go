package obs

import (
	"context"
	"fmt"
	"strings"
	"time"
)

// Stage is one step of the request pipeline a Trace times.
type Stage uint8

const (
	// StageEngine is the time in the engine's batch calls.
	StageEngine Stage = iota
	// StageRespond is response serialization and writing.
	StageRespond
	// NumStages bounds the stage set.
	NumStages
)

var stageNames = [NumStages]string{"engine", "respond"}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// Trace accumulates wall time per pipeline stage for one request. Only
// the request's handler goroutine writes it, around the calls it makes,
// so a stream's stages sum over its chunks. The zero Trace is ready to
// use; a nil *Trace disables collection, so a handler threads it
// unconditionally and pays nothing when tracing is off.
type Trace struct {
	d [NumStages]time.Duration
}

// Add accumulates d into stage s. Nil-safe.
//
//urllangid:hotpath
func (t *Trace) Add(s Stage, d time.Duration) {
	if t != nil {
		t.d[s] += d
	}
}

// Stage returns the accumulated time in s.
func (t *Trace) Stage(s Stage) time.Duration {
	if t == nil {
		return 0
	}
	return t.d[s]
}

// String renders the per-stage breakdown for a slow-request log line,
// e.g. "engine=480µs respond=22µs".
func (t *Trace) String() string {
	if t == nil {
		return ""
	}
	var b strings.Builder
	for s := Stage(0); s < NumStages; s++ {
		if s > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%s", s, t.d[s])
	}
	return b.String()
}

type traceCtxKey struct{}

// ContextWithTrace attaches t to ctx so the route wrapper that reports
// a request's trace can hand it to the handler that fills it in.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, t)
}

// TraceFrom returns the trace attached to ctx, or nil (collection off).
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return t
}
