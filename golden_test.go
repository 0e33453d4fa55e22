package linkclust

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"linkclust/internal/core"
)

// Golden hashes for the fixed-seed word-association pipeline below. They pin
// the exact clustering output (merge stream, bit for bit) and the
// worker-invariant RunReport counters across every engine. If an intentional
// algorithm change moves them, rerun the test and update the constants from
// the failure message — any other trigger is a regression in determinism.
const (
	goldenClusterSHA  = "acd8ee08ada0f030f60c9c94cac36a65c66d1d94744f3e18fadb6a8020d86e8c"
	goldenCountersSHA = "ea5c09f1697f1e130c89d35e4ff36c958755534f17c2c1d64730d2ba08b375fc"
	// goldenSpillBuckets pins the spilled sweep's bucket policy on the
	// golden graph: the number of non-empty similarity buckets it writes.
	goldenSpillBuckets = 291
	// goldenStreamCountersSHA pins the stream.* counters of the canonical
	// golden-graph replay (batches of 512, a snapshot every fourth batch):
	// like the engine counters above they are pure functions of the arrival
	// sequence and batching, never of the worker count.
	goldenStreamCountersSHA = "8fc721c218ec964fc1031629a6c47396d577132c53dc0bb2dcb1a343cdcaa30b"
)

// goldenGraph builds the fixed-seed word-association network the golden
// hashes are pinned to: the default synthetic corpus scaled down, α = 0.5,
// edge ids permuted with the default seed.
func goldenGraph(t *testing.T) *Graph {
	t.Helper()
	cfg := DefaultSynthConfig()
	cfg.Vocab = 800
	cfg.Docs = 1500
	cfg.Topics = 8
	g, err := BuildWordGraph(SynthesizeCorpus(cfg), 0.5, AssocOptions{EdgePermSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// canonMerges serializes a fine-grained result canonically: one line per
// merge carrying the exact float bits of its similarity, then the summary
// counts. Bitwise-equal results — and only those — share a serialization.
func canonMerges(res *Result) string {
	var b strings.Builder
	for _, m := range res.Merges {
		fmt.Fprintf(&b, "%d %d %d %d %016x\n", m.Level, m.A, m.B, m.Into, math.Float64bits(m.Sim))
	}
	fmt.Fprintf(&b, "levels %d clusters %d ops %d\n", res.Levels, res.NumClusters(), res.PairsProcessed)
	return b.String()
}

func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// goldenInvariantCounters is the set of RunReport counters that are pure
// functions of the input graph — never of the worker count or timing. The
// stall/overlap/ns counters are deliberately absent.
var goldenInvariantCounters = []string{
	core.CtrSimilarityPairs,
	core.CtrSimilarityIncidentPairs,
	core.CtrSimilarityWedgeRows,
	core.CtrSweepPairsProcessed,
	core.CtrSweepChainRewrites,
	core.CtrSweepMerges,
	core.CtrSweepWindows,
	core.CtrSweepRounds,
	core.CtrSweepDeferrals,
	core.CtrSweepNoopDrops,
	core.CtrSweepSerialDrains,
	core.CtrSweepFlattens,
}

// canonCounters serializes the worker-invariant counters of a run report in
// sorted name order.
func canonCounters(rep *RunReport) string {
	names := append([]string(nil), goldenInvariantCounters...)
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s=%d\n", n, rep.Counters[n])
	}
	return b.String()
}

// TestGoldenClusterOutput runs the fixed corpus through the serial reference
// and the windowed engine at worker counts 1..8, and requires every run to
// hash to the checked-in golden value.
func TestGoldenClusterOutput(t *testing.T) {
	g := goldenGraph(t)
	serial, err := Cluster(g)
	if err != nil {
		t.Fatal(err)
	}
	if got := sha(canonMerges(serial)); got != goldenClusterSHA {
		t.Fatalf("serial Cluster hash %s, golden %s", got, goldenClusterSHA)
	}
	for workers := 1; workers <= 8; workers++ {
		par, err := ClusterParallel(g, workers)
		if err != nil {
			t.Fatalf("parallel T=%d: %v", workers, err)
		}
		if got := sha(canonMerges(par)); got != goldenClusterSHA {
			t.Fatalf("ClusterParallel T=%d hash %s, golden %s", workers, got, goldenClusterSHA)
		}
	}
	// The out-of-core sweep routes the same pair list through disk; the
	// golden pin extends to it unchanged at representative worker counts.
	for _, workers := range []int{1, 4, 8} {
		ooc, err := ClusterOutOfCore(g, workers)
		if err != nil {
			t.Fatalf("out-of-core T=%d: %v", workers, err)
		}
		if got := sha(canonMerges(ooc)); got != goldenClusterSHA {
			t.Fatalf("ClusterOutOfCore T=%d hash %s, golden %s", workers, got, goldenClusterSHA)
		}
	}
}

// TestGoldenCounters runs the default ClusterCtx path at several worker
// counts and requires the worker-invariant counter set to hash to the
// checked-in golden value every time — scheduling counters (windows, rounds,
// deferrals) included, since the engine derives them from op counts, not
// threads. It also pins the spilled sweep's bucket count, which depends
// only on the pair list.
func TestGoldenCounters(t *testing.T) {
	g := goldenGraph(t)
	for _, workers := range []int{1, 2, 4, 8} {
		rec := NewRecorder()
		if _, err := ClusterCtx(context.Background(), g, ClusterOptions{Workers: workers, Recorder: rec}); err != nil {
			t.Fatalf("T=%d: %v", workers, err)
		}
		if got := sha(canonCounters(rec.Report())); got != goldenCountersSHA {
			t.Fatalf("T=%d counters hash %s, golden %s\ncounters:\n%s",
				workers, got, goldenCountersSHA, canonCounters(rec.Report()))
		}
	}
	for _, workers := range []int{1, 4} {
		rec := NewRecorder()
		if _, err := ClusterCtx(context.Background(), g,
			ClusterOptions{Workers: workers, Engine: EngineSpill, Recorder: rec}); err != nil {
			t.Fatalf("spill T=%d: %v", workers, err)
		}
		if got := rec.Counter(CtrSpillBuckets); got != goldenSpillBuckets {
			t.Fatalf("spill T=%d: %s = %d, golden %d", workers, CtrSpillBuckets, got, goldenSpillBuckets)
		}
	}
}

// TestGoldenEngines extends the golden pin to the engine selector: every
// accepted ClusterOptions.Engine name — auto, the empty default, the legacy
// pipelined and serial names included — at several worker counts must hash
// to the serial pipeline's golden value and record the engine that actually
// ran (parallel, or spill) as the report's sweep_engine.
func TestGoldenEngines(t *testing.T) {
	g := goldenGraph(t)
	for _, engine := range []string{"", EngineAuto, EngineSerial, EngineParallel, EnginePipelined, EngineSpill} {
		want := EngineParallel
		if engine == EngineSpill {
			want = EngineSpill
		}
		for _, workers := range []int{1, 4, 8} {
			rec := NewRecorder()
			res, err := ClusterCtx(context.Background(), g,
				ClusterOptions{Workers: workers, Engine: engine, Recorder: rec})
			if err != nil {
				t.Fatalf("engine=%q T=%d: %v", engine, workers, err)
			}
			if got := sha(canonMerges(res)); got != goldenClusterSHA {
				t.Fatalf("engine=%q T=%d hash %s, golden %s", engine, workers, got, goldenClusterSHA)
			}
			if got := rec.Report().Meta["sweep_engine"]; got != want {
				t.Fatalf("engine=%q T=%d: sweep_engine %q, want %q", engine, workers, got, want)
			}
		}
	}
	if _, err := ClusterCtx(context.Background(), g, ClusterOptions{Engine: "warp"}); err == nil {
		t.Fatal("unknown engine name accepted")
	}
}

// replayGoldenStream feeds the golden graph's edges, in id order, into a
// stream engine in batches of 512 with a snapshot every fourth batch — the
// intermediate snapshots sweep the spliced list mid-stream — and returns the
// final snapshot.
func replayGoldenStream(t *testing.T, eng *Stream, arr []Arrival) *Result {
	t.Helper()
	const batch = 512
	step := 0
	for lo := 0; lo < len(arr); lo += batch {
		hi := min(lo+batch, len(arr))
		if err := eng.IngestBatch(arr[lo:hi]); err != nil {
			t.Fatal(err)
		}
		if step++; step%4 == 0 {
			if _, err := eng.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	res, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestGoldenStreamReplay extends the golden pin to the incremental engine:
// replaying the golden graph as an edge stream with interleaved snapshots
// must land on the batch pipeline's exact merge stream at every worker
// count — the differential contract against the checked-in hash rather
// than an in-process oracle.
func TestGoldenStreamReplay(t *testing.T) {
	g := goldenGraph(t)
	arr := streamArrivals(g)
	for _, workers := range []int{1, 4, 8} {
		eng, err := NewStream(StreamOptions{Workers: workers, MaxVertices: g.NumVertices()})
		if err != nil {
			t.Fatal(err)
		}
		res := replayGoldenStream(t, eng, arr)
		if got := sha(canonMerges(res)); got != goldenClusterSHA {
			t.Fatalf("stream replay T=%d hash %s, golden %s", workers, got, goldenClusterSHA)
		}
	}
}

// canonStreamCounters serializes the stream.* counters in sorted name order.
func canonStreamCounters(rep *RunReport) string {
	names := []string{CtrStreamAffectedRows, CtrStreamBatches}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s=%d\n", n, rep.Counters[n])
	}
	return b.String()
}

// TestGoldenStreamCounters pins the stream.* counters of the canonical
// replay: affected rows and batches both derive from the arrival sequence, so
// every worker count must serialize to the same checked-in hash.
func TestGoldenStreamCounters(t *testing.T) {
	g := goldenGraph(t)
	arr := streamArrivals(g)
	for _, workers := range []int{1, 4, 8} {
		rec := NewRecorder()
		eng, err := NewStream(StreamOptions{Workers: workers, Recorder: rec, MaxVertices: g.NumVertices()})
		if err != nil {
			t.Fatal(err)
		}
		replayGoldenStream(t, eng, arr)
		canon := canonStreamCounters(rec.Report())
		if got := sha(canon); got != goldenStreamCountersSHA {
			t.Fatalf("T=%d stream counters hash %s, golden %s\ncounters:\n%s",
				workers, got, goldenStreamCountersSHA, canon)
		}
	}
}
