package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"linkclust/internal/graph"
	"linkclust/internal/obs"
	"linkclust/internal/rng"
)

// TestResolveSweepEngine pins the name mapping every caller shares: spill
// runs as given, serial is the windowed engine at one worker, every other
// accepted name (the legacy pipelined included) is the windowed engine at
// the requested worker count, and an unknown name is an error.
func TestResolveSweepEngine(t *testing.T) {
	for _, c := range []struct {
		name        string
		workers     int
		want        string
		wantWorkers int
	}{
		{"", 1, SweepEngineParallel, 1},
		{"", 4, SweepEngineParallel, 4},
		{SweepEngineAuto, 4, SweepEngineParallel, 4},
		{SweepEngineSerial, 8, SweepEngineParallel, 1},
		{SweepEngineParallel, 3, SweepEngineParallel, 3},
		{SweepEnginePipelined, 1, SweepEngineParallel, 1},
		{SweepEnginePipelined, 4, SweepEngineParallel, 4},
		{SweepEngineSpill, 2, SweepEngineSpill, 2},
	} {
		got, gotWorkers, err := ResolveSweepEngine(c.name, c.workers)
		if err != nil || got != c.want || gotWorkers != c.wantWorkers {
			t.Errorf("ResolveSweepEngine(%q, %d) = (%q, %d, %v), want (%q, %d, nil)",
				c.name, c.workers, got, gotWorkers, err, c.want, c.wantWorkers)
		}
	}
	if _, _, err := ResolveSweepEngine("warp", 4); err == nil {
		t.Error("ResolveSweepEngine accepted an unknown engine name")
	}
}

// sweepNamed runs the sweep a caller gets for an engine name: the name is
// resolved exactly as the facade, the CLI and the daemon resolve it, and
// the resolved engine runs at the resolved worker count.
func sweepNamed(t *testing.T, name string, g *graph.Graph, pl *PairList, workers int, rec *obs.Recorder) (*Result, error) {
	t.Helper()
	engine, w, err := ResolveSweepEngine(name, workers)
	if err != nil {
		t.Fatalf("ResolveSweepEngine(%q, %d): %v", name, workers, err)
	}
	if engine == SweepEngineSpill {
		return SweepSpilledCtx(context.Background(), g, pl, w, rec)
	}
	return SweepParallelCtx(context.Background(), g, pl, w, rec)
}

// TestSweepPipelinedDifferential is the acceptance differential for the
// legacy pipelined engine name: on every graph family and every worker
// count 1..8, the engine it selects must reproduce the serial sweep exactly
// — bitwise-equal merge streams and identical final partitions — and must
// leave the pair list sorted in place exactly as the other sweeps do.
func TestSweepPipelinedDifferential(t *testing.T) {
	for name, g := range wedgeTestGraphs(t) {
		t.Run(name, func(t *testing.T) {
			serial, err := Sweep(g, Similarity(g))
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			for workers := 1; workers <= 8; workers++ {
				pl := Similarity(g)
				res, err := sweepNamed(t, SweepEnginePipelined, g, pl, workers, nil)
				if err != nil {
					t.Fatalf("T=%d: %v", workers, err)
				}
				requireIdenticalSweep(t, fmt.Sprintf("pipelined T=%d vs serial", workers), res, serial)
				if !pl.Sorted() {
					t.Fatalf("T=%d: pair list not marked sorted after pipelined sweep", workers)
				}
				for i := 1; i < len(pl.Pairs); i++ {
					if cmpPairs(pl.Pairs[i-1], pl.Pairs[i]) > 0 {
						t.Fatalf("T=%d: pair list out of order at %d after pipelined sweep", workers, i)
					}
				}
			}
		})
	}
}

// TestSweepPipelinedLargeRandom pushes the legacy name past the shared
// families with graphs big enough to cut many windows and cross the
// engine's fan-out thresholds.
func TestSweepPipelinedLargeRandom(t *testing.T) {
	for seed := uint64(0); seed < 3; seed++ {
		g := graph.ErdosRenyi(300, 0.06, rng.New(seed))
		serial, err := Sweep(g, Similarity(g))
		if err != nil {
			t.Fatalf("seed %d serial: %v", seed, err)
		}
		for _, workers := range []int{1, 3, 8} {
			res, err := sweepNamed(t, SweepEnginePipelined, g, Similarity(g), workers, nil)
			if err != nil {
				t.Fatalf("seed %d T=%d: %v", seed, workers, err)
			}
			requireIdenticalSweep(t, fmt.Sprintf("seed %d T=%d", seed, workers), res, serial)
		}
	}
}

// TestSweepPipelinedPresorted covers a pre-sorted pair list under the
// legacy name: the output must still match serial and the sorted flag must
// survive.
func TestSweepPipelinedPresorted(t *testing.T) {
	g := graph.ErdosRenyi(120, 0.1, rng.New(7))
	serial, err := Sweep(g, Similarity(g))
	if err != nil {
		t.Fatal(err)
	}
	pl := Similarity(g)
	pl.Sort()
	res, err := sweepNamed(t, SweepEnginePipelined, g, pl, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalSweep(t, "presorted", res, serial)
	if !pl.Sorted() {
		t.Fatal("sorted flag lost")
	}
}

// TestSweepPipelinedErrorParity feeds the legacy name a pair list from a
// foreign graph: it must surface exactly the serial sweep's error (first
// failing operation in serial order) at every worker count.
func TestSweepPipelinedErrorParity(t *testing.T) {
	g, err := graph.Circulant(48, 6)
	if err != nil {
		t.Fatal(err)
	}
	foreign := graph.Complete(48)
	_, serialErr := Sweep(g, Similarity(foreign))
	if serialErr == nil {
		t.Fatal("serial sweep accepted a foreign pair list")
	}
	for workers := 1; workers <= 8; workers++ {
		_, pipeErr := sweepNamed(t, SweepEnginePipelined, g, Similarity(foreign), workers, nil)
		if pipeErr == nil {
			t.Fatalf("T=%d: pipelined sweep accepted a foreign pair list", workers)
		}
		if pipeErr.Error() != serialErr.Error() {
			t.Fatalf("T=%d: error %q, want serial's %q", workers, pipeErr, serialErr)
		}
	}
}

// TestSweepPipelinedCounters checks the instrumentation a legacy pipelined
// run records: the standard sweep counters must match the result, every
// operation must retire exactly once, and no counter of the deleted
// sort-overlapped engine may appear.
func TestSweepPipelinedCounters(t *testing.T) {
	g := graph.ErdosRenyi(200, 0.08, rng.New(4))
	for _, workers := range []int{1, 4, 8} {
		rec := obs.New()
		res, err := sweepNamed(t, SweepEnginePipelined, g, Similarity(g), workers, rec)
		if err != nil {
			t.Fatalf("T=%d: %v", workers, err)
		}
		if got := rec.Counter(CtrSweepPairsProcessed); got != res.PairsProcessed {
			t.Fatalf("T=%d: pairs counter %d, want %d", workers, got, res.PairsProcessed)
		}
		retired := rec.Counter(CtrSweepMerges) + rec.Counter(CtrSweepNoopDrops)
		if retired != res.PairsProcessed {
			t.Fatalf("T=%d: merges + drops = %d, want every op retired once (%d)", workers, retired, res.PairsProcessed)
		}
		for name := range rec.Report().Counters {
			if strings.HasPrefix(name, "pipeline.") {
				t.Fatalf("T=%d: counter %q recorded; the windowed engine has no pipeline counters", workers, name)
			}
		}
	}
}

// TestClusterPipelinedMatchesCluster is the end-to-end check of the legacy
// name: Phase I followed by the sweep it selects equals Cluster bitwise at
// several worker counts.
func TestClusterPipelinedMatchesCluster(t *testing.T) {
	g := graph.ErdosRenyi(180, 0.07, rng.New(21))
	serial, err := Cluster(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 5, 8} {
		res, err := sweepNamed(t, SweepEnginePipelined, g, SimilarityParallel(g, workers), workers, nil)
		if err != nil {
			t.Fatalf("T=%d: %v", workers, err)
		}
		requireIdenticalSweep(t, fmt.Sprintf("cluster pipelined T=%d", workers), res, serial)
	}
}
