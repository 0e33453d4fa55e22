package core

import (
	"runtime"
	"testing"
)

// TestChooseSweepEngine pins the auto policy: the windowed engine at every
// worker count, the pipelined one only when requested with a second worker
// to sort on. The serial loop is never chosen.
func TestChooseSweepEngine(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("worker normalization clamps to 1 here; multi-worker selection untestable")
	}
	for _, c := range []struct {
		workers  int
		pipeline bool
		want     string
	}{
		{8, false, SweepEngineParallel},
		{8, true, SweepEnginePipelined},
		{2, true, SweepEnginePipelined},
		{1, false, SweepEngineParallel},
		{1, true, SweepEngineParallel},  // one worker: nothing to overlap the sort with
		{0, false, SweepEngineParallel}, // 0 normalizes to 1
		{0, true, SweepEngineParallel},
	} {
		if got := ChooseSweepEngine(c.workers, c.pipeline); got != c.want {
			t.Errorf("ChooseSweepEngine(%d, %v) = %q, want %q", c.workers, c.pipeline, got, c.want)
		}
	}
}

// TestResolveSweepEngine pins the name mapping every caller shares: empty
// and auto defer to ChooseSweepEngine, serial is the windowed engine at one
// worker, and explicit engines keep the requested worker count.
func TestResolveSweepEngine(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("worker normalization clamps to 1 here; multi-worker selection untestable")
	}
	for _, c := range []struct {
		name        string
		workers     int
		pipeline    bool
		want        string
		wantWorkers int
	}{
		{"", 1, false, SweepEngineParallel, 1},
		{"", 4, true, SweepEnginePipelined, 4},
		{SweepEngineAuto, 4, false, SweepEngineParallel, 4},
		{SweepEngineSerial, 8, false, SweepEngineParallel, 1},
		{SweepEngineSerial, 8, true, SweepEngineParallel, 1},
		{SweepEngineParallel, 3, true, SweepEngineParallel, 3},
		{SweepEnginePipelined, 1, false, SweepEnginePipelined, 1},
		{SweepEngineSpill, 2, false, SweepEngineSpill, 2},
	} {
		got, gotWorkers := ResolveSweepEngine(c.name, c.workers, c.pipeline)
		if got != c.want || gotWorkers != c.wantWorkers {
			t.Errorf("ResolveSweepEngine(%q, %d, %v) = (%q, %d), want (%q, %d)",
				c.name, c.workers, c.pipeline, got, gotWorkers, c.want, c.wantWorkers)
		}
	}
}
