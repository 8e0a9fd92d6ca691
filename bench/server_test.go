package main

import (
	"os/exec"
	"testing"
	"time"
)

// TestPauseStopsCPU pauses a child that burns CPU without end, as a
// server finishing background work between windows would: while paused
// its CPU clock must not move, so it cannot slow the probe, and after
// resume it must run again.
func TestPauseStopsCPU(t *testing.T) {
	s := &server{cmd: exec.Command("sh", "-c", "while :; do :; done")}
	if err := s.cmd.Start(); err != nil {
		t.Skip("no sh to run a busy child:", err)
	}
	defer s.kill()
	cpuAfter := func(d time.Duration) time.Duration {
		t.Helper()
		time.Sleep(d)
		c, err := s.cpu()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	cpuAfter(20 * time.Millisecond)
	err := whilePaused(s, func() error {
		cpuAfter(50 * time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatalf("busy child paused: %v", err)
	}
	before := cpuAfter(0)
	if after := cpuAfter(50 * time.Millisecond); after == before {
		t.Errorf("CPU clock stuck at %v after resume", after)
	}
}
