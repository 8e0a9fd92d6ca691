package obs

import (
	"context"
	"testing"
	"time"
)

func TestTraceAccumulates(t *testing.T) {
	var tr Trace
	tr.Add(StageEngine, 10*time.Microsecond)
	tr.Add(StageEngine, 5*time.Microsecond)
	if got := tr.Stage(StageEngine); got != 15*time.Microsecond {
		t.Errorf("engine stage = %v, want 15µs", got)
	}
	if got := tr.Stage(StageRespond); got != 0 {
		t.Errorf("untouched stage = %v, want 0", got)
	}
	if s, want := tr.String(), "engine=15µs respond=0s"; s != want {
		t.Errorf("String() = %q, want %q", s, want)
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	tr.Add(StageEngine, time.Second) // must not panic
	if tr.Stage(StageEngine) != 0 || tr.String() != "" {
		t.Error("nil trace must read empty")
	}
}

func TestTraceContext(t *testing.T) {
	if TraceFrom(context.Background()) != nil {
		t.Error("background context must carry no trace")
	}
	tr := new(Trace)
	ctx := ContextWithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Error("trace lost in context round-trip")
	}
}
