package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"linkclust/internal/assoc"
	"linkclust/internal/corpus"
	"linkclust/internal/graph"
	"linkclust/internal/obs"
	"linkclust/internal/rng"
)

// smallWordCorpus is the corpus of lcbench's small preset (vocab 4000, docs
// 6000, 16 topics), synthesized once per test binary.
var smallWordCorpus = sync.OnceValue(func() *corpus.Corpus {
	cfg := corpus.DefaultSynthConfig()
	cfg.Vocab = 4000
	cfg.Docs = 6000
	cfg.Topics = 16
	return corpus.Synthesize(cfg)
})

// hubHeavyGraphs are the inputs on which the windowed engine's rounds retire
// few ops each: a random graph dense enough for hub conflicts, a star (every
// op touches the center's edges), a clique, and the two smallest word graphs
// of lcbench's small preset (α labels 0.0002 and 0.00026, scaled by the
// preset's AlphaScale of 100, edge ids permuted with its seed 42).
func hubHeavyGraphs(t testing.TB) map[string]*graph.Graph {
	t.Helper()
	out := map[string]*graph.Graph{
		"erdos-renyi-200": graph.ErdosRenyi(200, 0.08, rng.New(4)),
		"star-300":        graph.Star(300),
		"clique-40":       graph.Complete(40),
	}
	for _, alpha := range []float64{0.0002, 0.00026} {
		g, err := assoc.Build(smallWordCorpus(), alpha*100, assoc.Options{EdgePermSeed: 42})
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("word-%g", alpha)] = g
	}
	return out
}

// sweepEngineCounters are the engine counters that are pure functions of the
// pair list. sweep.cas_rounds is telemetry and depends on the worker count.
var sweepEngineCounters = []string{
	CtrSweepPairsProcessed, CtrSweepChainRewrites, CtrSweepMerges,
	CtrSweepWindows, CtrSweepRounds, CtrSweepDeferrals, CtrSweepNoopDrops,
	CtrSweepSerialDrains, CtrSweepFlattens,
}

// TestSweepDeferralBound guards against the round blow-up on hub-heavy
// windows: a window drains as soon as a round retires under a quarter of its
// pending ops, so deferrals stay below four times the op count on any input
// (three times, in fact — pending shrinks geometrically until the drain).
// Without the rule ErdosRenyi(200, 0.08) takes 585 rounds and 1.54M
// deferrals for 27,300 ops. Every counter must also be identical at every
// worker count.
func TestSweepDeferralBound(t *testing.T) {
	for name, g := range hubHeavyGraphs(t) {
		t.Run(name, func(t *testing.T) {
			var want map[string]int64
			for _, workers := range []int{1, 2, 4, 8} {
				rec := obs.New()
				if _, err := SweepParallelRecorded(g, Similarity(g), workers, rec); err != nil {
					t.Fatalf("T=%d: %v", workers, err)
				}
				ops, defers := rec.Counter(CtrSweepPairsProcessed), rec.Counter(CtrSweepDeferrals)
				if defers > 4*ops {
					t.Fatalf("T=%d: %d deferrals for %d ops (%d rounds), want at most 4 per op",
						workers, defers, ops, rec.Counter(CtrSweepRounds))
				}
				got := map[string]int64{}
				for _, c := range sweepEngineCounters {
					got[c] = rec.Counter(c)
				}
				if want == nil {
					want = got
					continue
				}
				for _, c := range sweepEngineCounters {
					if got[c] != want[c] {
						t.Errorf("T=%d: %s = %d, T=1 had %d", workers, c, got[c], want[c])
					}
				}
			}
		})
	}
}

// TestSweepOneWorkerDifferential pins the production one-worker sweep
// (SweepCtx, the engine at one worker) and SweepParallelCtx at T=1..8 to the
// reference loop on the hub-heavy graphs, where the early drain fires most:
// bitwise-equal merge streams and identical final partitions.
func TestSweepOneWorkerDifferential(t *testing.T) {
	ctx := context.Background()
	for name, g := range hubHeavyGraphs(t) {
		t.Run(name, func(t *testing.T) {
			want, err := Sweep(g, Similarity(g))
			if err != nil {
				t.Fatal(err)
			}
			got, err := SweepCtx(ctx, g, Similarity(g), nil)
			if err != nil {
				t.Fatalf("SweepCtx: %v", err)
			}
			requireIdenticalSweep(t, "SweepCtx vs Sweep", got, want)
			for workers := 1; workers <= 8; workers++ {
				got, err := SweepParallelCtx(ctx, g, Similarity(g), workers, nil)
				if err != nil {
					t.Fatalf("T=%d: %v", workers, err)
				}
				requireIdenticalSweep(t, fmt.Sprintf("SweepParallelCtx T=%d vs Sweep", workers), got, want)
			}
		})
	}
}

// TestSweepOneWorkerErrorParity feeds SweepCtx and SweepParallelCtx pair
// lists built from other graphs: each must report the reference loop's
// first error, word for word.
func TestSweepOneWorkerErrorParity(t *testing.T) {
	ctx := context.Background()
	circ, err := graph.Circulant(48, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name       string
		g, foreign *graph.Graph
	}{
		{"circulant-vs-clique", circ, graph.Complete(48)},
		{"star-vs-erdos-renyi", graph.Star(200), graph.ErdosRenyi(200, 0.08, rng.New(4))},
	} {
		_, wantErr := Sweep(c.g, Similarity(c.foreign))
		if wantErr == nil {
			t.Fatalf("%s: the reference sweep accepted a foreign pair list", c.name)
		}
		if _, err := SweepCtx(ctx, c.g, Similarity(c.foreign), nil); err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%s: SweepCtx error %v, want %q", c.name, err, wantErr)
		}
		for workers := 1; workers <= 8; workers++ {
			if _, err := SweepParallelCtx(ctx, c.g, Similarity(c.foreign), workers, nil); err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("%s T=%d: error %v, want %q", c.name, workers, err, wantErr)
			}
		}
	}
}
