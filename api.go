// Package linkclust is an efficient link-clustering library for multi-core
// machines, reproducing Guanhua Yan, "Improving Efficiency of Link
// Clustering on Multi-Core Machines" (ICDCS 2017).
//
// Link clustering (Ahn, Bagrow & Lehmann, Nature 2010) groups the *edges*
// of a graph by the Tanimoto similarity of incident edges, revealing
// overlapping and hierarchical community structure. This package provides
// the paper's three acceleration axes behind one facade:
//
//   - Algorithm — the two-phase serial sweep: Similarity (Algorithm 1)
//     computes incident-pair similarities in three graph passes; Cluster /
//     Sweep (Algorithm 2) replays them through the chain array C in
//     O(|V| + K1·log K1 + √K2·|E|) time, versus O(|E|²) for classic
//     single-linkage (SLINK / next-best-merge).
//   - Modeling — CoarseCluster produces coarse-grained dendrograms whose
//     per-level merge rate is bounded by γ, stopping below φ clusters, with
//     rollback-based chunk-size estimation.
//   - Parallelization — SimilarityParallel, SweepParallel and
//     CoarseParams.Workers run both phases multi-threaded (Section VI),
//     including the corrected replica-merge scheme for array C and a
//     deterministic reservation engine for the fine-grained sweep whose
//     merge stream is bitwise identical to serial at any worker count.
//
// Dendrogram analysis (cuts, partition density, overlapping communities)
// and the paper's word-association-network pipeline (tokenizing, stemming,
// PMI edge weights) are included. See DESIGN.md for the system inventory
// and EXPERIMENTS.md for the reproduced evaluation.
//
// Quick start:
//
//	g := linkclust.NewGraphBuilder(4)
//	g.MustAddEdge(0, 1, 1)
//	// ... add edges ...
//	res, err := linkclust.Cluster(g.Build(nil))
//	d := linkclust.NewDendrogram(res)
//	theta, density, labels := linkclust.BestCut(g.Build(nil), d)
//	comms := linkclust.Communities(g.Build(nil), labels)
package linkclust

import (
	"context"
	"errors"
	"fmt"
	"io"

	"linkclust/internal/assoc"
	"linkclust/internal/coarse"
	"linkclust/internal/core"
	"linkclust/internal/corpus"
	"linkclust/internal/dendro"
	"linkclust/internal/graph"
	"linkclust/internal/metrics"
	"linkclust/internal/obs"
	"linkclust/internal/onmi"
	"linkclust/internal/par"
	"linkclust/internal/planted"
	"linkclust/internal/stream"
)

// Graph and corpus building blocks.
type (
	// Graph is an immutable weighted undirected graph.
	Graph = graph.Graph
	// GraphBuilder accumulates edges and produces a Graph.
	GraphBuilder = graph.Builder
	// Edge is an undirected weighted edge with canonical order U < V.
	Edge = graph.Edge
	// GraphStats bundles |V|, |E|, density, and the K1/K2/K3 quantities
	// of the paper's complexity analysis.
	GraphStats = graph.Stats

	// Corpus is an ordered collection of processed documents.
	Corpus = corpus.Corpus
	// SynthConfig parameterizes the synthetic tweet generator.
	SynthConfig = corpus.SynthConfig
	// AssocOptions tunes word-association-network construction.
	AssocOptions = assoc.Options
)

// Clustering types.
type (
	// Pair is one vertex pair of map M with its similarity and common
	// neighbors (Algorithm 1 output).
	Pair = core.Pair
	// PairList is the materialized map M; after Sort it is list L.
	PairList = core.PairList
	// Merge is one dendrogram merge event.
	Merge = core.Merge
	// Result is the output of the fine-grained sweep.
	Result = core.Result
	// Chain is the array C with the F(i)/MERGE primitives.
	Chain = core.Chain
	// CompactPairList is the struct-of-arrays pair list for
	// memory-constrained runs.
	CompactPairList = core.CompactPairList

	// CoarseParams configures coarse-grained clustering (γ, φ, δ0, η0,
	// worker count).
	CoarseParams = coarse.Params
	// CoarseResult is the output of a coarse-grained sweep.
	CoarseResult = coarse.Result
	// CoarseEpoch records one epoch of the coarse-grained mode machine.
	CoarseEpoch = coarse.Epoch

	// Dendrogram supports cuts and per-level queries over merge streams.
	Dendrogram = dendro.Dendrogram
	// Community is one link community with its edges and induced nodes.
	Community = dendro.Community
)

// NewGraphBuilder returns a builder for a graph with n unlabeled vertices.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// NewLabeledGraphBuilder returns a builder whose vertices carry labels.
func NewLabeledGraphBuilder(labels []string) *GraphBuilder {
	return graph.NewLabeledBuilder(labels)
}

// ComputeStats returns the structural statistics of g, including K1 and K2.
func ComputeStats(g *Graph) GraphStats { return graph.ComputeStats(g) }

// ReadGraph parses a graph in the library's text format.
func ReadGraph(r io.Reader) (*Graph, error) { return graph.Read(r) }

// WriteGraph serializes a graph in the library's text format.
func WriteGraph(w io.Writer, g *Graph) error { return graph.Write(w, g) }

// WriteDOT serializes a graph in Graphviz DOT format; edgeColor (optional)
// maps each edge id to a color class, the usual way to draw link
// communities.
func WriteDOT(w io.Writer, g *Graph, edgeColor func(edge int32) int32) error {
	return graph.WriteDOT(w, g, edgeColor)
}

// Observability. Every pipeline entry point accepts an optional *Recorder
// (nil disables instrumentation at no measurable cost); a populated
// Recorder yields a RunReport with per-phase wall times, named counters
// (pairs processed, chain rewrites, replica merges), and memory deltas.
type (
	// Recorder collects phase timers and counters for one pipeline run.
	// All methods are safe on a nil receiver, which disables recording.
	Recorder = obs.Recorder
	// RunReport is the JSON-serializable summary of an instrumented run.
	RunReport = obs.RunReport
	// PhaseReport is one aggregated phase of a RunReport.
	PhaseReport = obs.PhaseReport
)

// NewRecorder returns a Recorder with the run clock started.
func NewRecorder() *Recorder { return obs.New() }

// WorkerPanicError is the typed error surfaced by the context-aware entry
// points when a goroutine inside a worker pool panics: the pool recovers the
// panic, asks its siblings to stop, drains, and the entry point returns this
// error (carrying the worker index and stack) instead of crashing the
// process. Match it with errors.As.
type WorkerPanicError = par.WorkerPanicError

// CtrMemBudgetDegrades counts runs that breached the soft memory budget at
// the initialization/sweep boundary and degraded from fine-grained to
// coarse-grained clustering — since the out-of-core path landed, only
// because the spill attempt itself failed at the disk
// (see ClusterOptions.MemBudgetBytes).
const CtrMemBudgetDegrades = "cluster.mem_budget_degrades"

// CtrMemBudgetSpills counts runs that breached the soft memory budget and
// were admitted to the out-of-core spilled sweep instead — the first rung
// of the budget escalation ladder. A spilled run's output is bitwise
// identical to the in-memory engines', so unlike a degrade this is
// invisible to the result.
const CtrMemBudgetSpills = "cluster.mem_budget_spills"

// Spill counter names recorded by the out-of-core sweep. Buckets and bytes
// are worker-invariant (pure functions of the pair list); read stalls are a
// timing artifact.
const (
	CtrSpillBuckets      = core.CtrSpillBuckets
	CtrSpillBytesWritten = core.CtrSpillBytesWritten
	CtrSpillReadStalls   = core.CtrSpillReadStalls
)

// ClusterOptions configures an instrumented pipeline run.
type ClusterOptions struct {
	// Workers sets the worker count for the initialization and sweeping
	// phases. Like every parallel entry point, the value is normalized:
	// below 1 runs one worker, above max(runtime.GOMAXPROCS(0),
	// runtime.NumCPU()) is clamped to that cap.
	Workers int
	// Recorder, when non-nil, collects phase timers and counters for the
	// run; call Recorder.Report to obtain the RunReport.
	Recorder *Recorder
	// Engine selects the sweeping engine: EngineSpill runs the out-of-core
	// sweep, EngineSerial the windowed engine at one worker whatever
	// Workers says, and EngineAuto (also the empty default), EngineParallel
	// and the legacy EnginePipelined the windowed engine at Workers. Every
	// engine is bitwise identical — Engine affects speed and memory only.
	// The resolved engine is recorded on the Recorder's run report as meta
	// key "sweep_engine": EngineParallel or EngineSpill.
	Engine string
	// MemBudgetBytes, when positive, sets a soft live-heap budget for
	// ClusterCtx: heap growth is measured from entry and checked at the
	// initialization/sweep phase boundary, charging at least the pair
	// list's encoded size, which the run holds there for certain (a GC that
	// sweeps older garbage can otherwise hide it). On breach the run
	// escalates in two rungs. First it admits the pair list to disk and runs the
	// out-of-core spilled sweep (SweepSpilled, recorded under
	// CtrMemBudgetSpills), whose output is bitwise identical to the
	// in-memory engines. Only if spilling itself fails at the disk — store
	// creation or a write error, which leaves the pair list intact — does
	// the run degrade to coarse-grained clustering (DefaultCoarseParams)
	// over that list, recorded under CtrMemBudgetDegrades. "Soft" means
	// overshoot within a phase is only observed at the phase boundary; zero
	// disables the budget.
	MemBudgetBytes int64
	// SpillDir is the parent directory for the out-of-core sweep's private
	// spill directory (EngineSpill or the budget admission path); empty
	// means os.TempDir(). Each run spills into its own subdirectory and
	// removes it on every exit path.
	SpillDir string
}

// Similarity runs the initialization phase (Algorithm 1) serially with the
// wedge-major (Gustavson) kernel, producing the similarity-annotated pair
// list. Contributions are grouped by the smaller endpoint of each map-M key
// into a per-row sparse accumulator, avoiding the global hash map of the
// reference implementation (see SimilarityLegacy).
func Similarity(g *Graph) *PairList { return core.Similarity(g) }

// SimilarityParallel runs the initialization phase multi-threaded with the
// wedge-major kernel: rows of map M partition disjointly across workers
// (count-then-fill into a CSR layout, no merge phase), and the output is
// bitwise identical to Similarity for any worker count. The workers
// argument is normalized: values below 2 (after clamping) fall back to the
// serial path, values above max(runtime.GOMAXPROCS(0), runtime.NumCPU()) are clamped to that
// cap.
func SimilarityParallel(g *Graph, workers int) *PairList {
	return core.SimilarityParallel(g, workers)
}

// SimilarityLegacy runs the initialization phase through the original
// global hash-map accumulator — the paper's Section VI-A scheme, kept as
// the differential-testing reference and benchmark baseline. After Sort its
// output is element-wise identical to Similarity.
func SimilarityLegacy(g *Graph) *PairList { return core.SimilarityLegacy(g) }

// SimilarityParallelLegacy is the multi-threaded legacy path (per-worker
// hash maps merged hierarchically, Section VI-A). Unlike SimilarityParallel
// it matches the serial result only to float tolerance, because the map
// merges reorder additions. workers is normalized as in SimilarityParallel.
func SimilarityParallelLegacy(g *Graph, workers int) *PairList {
	return core.SimilarityParallelLegacy(g, workers)
}

// Sweep runs the sweeping phase (Algorithm 2) over a pair list built from
// the same graph. It is the paper's serial loop, kept as the reference the
// engines are checked against; SweepCtx is the production one-worker sweep.
func Sweep(g *Graph, pl *PairList) (*Result, error) { return core.Sweep(g, pl) }

// SweepParallel runs the sweeping phase multi-threaded: the sorted pair list
// is cut into merge-batch windows, each resolved and applied in conflict-free
// sub-batch rounds over one shared chain. The output is exact — the merge
// stream is bitwise identical to Sweep and the final partition element-wise
// equal, for any worker count. The pair list is sorted in place. workers is
// normalized exactly as in SimilarityParallel.
func SweepParallel(g *Graph, pl *PairList, workers int) (*Result, error) {
	return core.SweepParallel(g, pl, workers)
}

// SweepSpilled runs the sweeping phase out of core: the pair list is
// radix-partitioned into per-similarity-bucket spill files (in a private
// directory under os.TempDir(), removed on every exit path), the in-memory
// list is released, and the buckets stream back from disk through the
// windowed engine of SweepParallel — so the pair list never has to be
// memory-resident during the merge. The merge stream is bitwise
// identical to Sweep at any worker count. SweepSpilled consumes pl: on
// success pl.Pairs is nil; only a write-phase disk failure leaves it
// intact. workers is normalized exactly as in SimilarityParallel.
func SweepSpilled(g *Graph, pl *PairList, workers int) (*Result, error) {
	return core.SweepSpilled(g, pl, workers)
}

// SweepSpilledCtx is SweepSpilled with cooperative cancellation, panic
// isolation, optional instrumentation, and an explicit spill parent
// directory (empty means os.TempDir()). Cancellation is honored at the
// scatter's poll points, the producer's bucket claims/publishes, and the
// engine's window cuts; the run's spill directory is removed on every exit
// path and no goroutine outlives the call.
func SweepSpilledCtx(ctx context.Context, g *Graph, pl *PairList, workers int, spillDir string, rec *Recorder) (*Result, error) {
	return core.SweepSpilledOpts(ctx, g, pl, workers, core.SpillOptions{Dir: spillDir}, rec)
}

// ClusterOutOfCore is the end-to-end out-of-core pipeline: the parallel
// initialization phase followed by SweepSpilled. Output is bitwise
// identical to Cluster for any worker count.
func ClusterOutOfCore(g *Graph, workers int) (*Result, error) {
	return core.ClusterOutOfCore(g, workers)
}

// CompactPairs converts a pair list to the struct-of-arrays layout, roughly
// halving the pipeline's dominant allocation on large graphs.
func CompactPairs(pl *PairList) *CompactPairList { return core.Compact(pl) }

// SweepCompact is Sweep over the compact layout; results are identical.
func SweepCompact(g *Graph, c *CompactPairList) (*Result, error) {
	return core.SweepCompact(g, c)
}

// Cluster is the serial end-to-end pipeline: Similarity then Sweep — the
// reference implementation; ClusterCtx is the production pipeline.
func Cluster(g *Graph) (*Result, error) { return core.Cluster(g) }

// ClusterParallel runs the fully parallel fine-grained pipeline: the
// parallel initialization phase followed by the parallel fine-grained sweep.
// (The paper parallelizes only the coarse-grained sweep; the reservation
// engine goes beyond it while reproducing the serial result exactly, so this
// is a drop-in replacement for Cluster.) workers is normalized exactly as in
// SimilarityParallel.
func ClusterParallel(g *Graph, workers int) (*Result, error) {
	return core.SweepParallel(g, core.SimilarityParallel(g, workers), workers)
}

// ClusterInstrumented runs the fine-grained pipeline (parallel
// initialization, then the windowed sweep engine at opts.Workers) with
// optional instrumentation: phase wall times, the pairs-processed /
// chain-rewrite / merge counters and the engine's window/round counters land
// in opts.Recorder.
func ClusterInstrumented(g *Graph, opts ClusterOptions) (*Result, error) {
	pl := core.SimilarityParallelRecorded(g, opts.Workers, opts.Recorder)
	return core.SweepParallelRecorded(g, pl, opts.Workers, opts.Recorder)
}

// SimilarityCtx is SimilarityParallel with cooperative cancellation, panic
// isolation, and optional instrumentation: the context is checked at every
// row-block claim of the wedge kernel, and a worker panic surfaces as a
// *WorkerPanicError instead of crashing. On a nil error the output is bitwise
// identical to Similarity / SimilarityParallel.
func SimilarityCtx(ctx context.Context, g *Graph, workers int, rec *Recorder) (*PairList, error) {
	return core.SimilarityCtx(ctx, g, workers, rec)
}

// SweepCtx is SweepParallelCtx at one worker: the windowed engine with
// cooperative cancellation, checked at every window cut of 8192
// incident-edge operations, bounding cancel latency by one window. The merge
// stream is bitwise identical to Sweep.
func SweepCtx(ctx context.Context, g *Graph, pl *PairList, rec *Recorder) (*Result, error) {
	return core.SweepCtx(ctx, g, pl, rec)
}

// SweepParallelCtx is SweepParallel with cooperative cancellation, panic
// isolation, and optional instrumentation. Cancellation is checked at every
// op-count window cut and inside the parallel sort; on cancellation every
// worker pool drains before context.Canceled (or the context's error) is
// returned, so no goroutine outlives the call. When ctx never cancels, the
// merge stream is bitwise identical to Sweep for any worker count.
func SweepParallelCtx(ctx context.Context, g *Graph, pl *PairList, workers int, rec *Recorder) (*Result, error) {
	return core.SweepParallelCtx(ctx, g, pl, workers, rec)
}

// ClusterCtx is the cancellable, fault-tolerant end-to-end pipeline:
// SimilarityCtx followed by the sweep selected by opts.Engine (the windowed
// engine at opts.Workers unless spill or serial is named), with
// opts.MemBudgetBytes optionally spilling the run to disk or degrading it to
// coarse-grained clustering at the phase boundary (see ClusterOptions).
// Cancellation is honored within one scheduling window at every stage;
// worker panics surface as *WorkerPanicError; and when ctx never cancels, no
// budget breaches, and no fault is injected, the result is bitwise identical
// to Cluster.
func ClusterCtx(ctx context.Context, g *Graph, opts ClusterOptions) (*Result, error) {
	budget := obs.NewMemBudget(opts.MemBudgetBytes)
	pl, err := core.SimilarityCtx(ctx, g, opts.Workers, opts.Recorder)
	if err != nil {
		return nil, err
	}
	if budget != nil {
		budget.Reserve(core.SpillPayloadBytes(pl))
	}
	if budget.Exceeded() {
		// Escalation ladder, rung 1: admit the pair list to disk and sweep
		// out of core — exact output, the list no longer held in memory.
		opts.Recorder.Add(CtrMemBudgetSpills, 1)
		opts.Recorder.SetMeta("sweep_engine", EngineSpill)
		res, serr := core.SweepSpilledOpts(ctx, g, pl, opts.Workers,
			core.SpillOptions{Dir: opts.SpillDir}, opts.Recorder)
		if serr == nil {
			return res, nil
		}
		// Rung 2 applies only to disk failures during the write phase, which
		// leave the pair list intact (SweepSpilled's contract). Cancellation,
		// worker panics, and read-phase failures (list already released) are
		// terminal.
		if ctx.Err() != nil || pl.Pairs == nil {
			return nil, serr
		}
		var wpe *par.WorkerPanicError
		if errors.As(serr, &wpe) {
			return nil, serr
		}
		opts.Recorder.Add(CtrMemBudgetDegrades, 1)
		params := coarse.DefaultParams()
		params.Workers = opts.Workers
		cres, err := coarse.SweepCtx(ctx, g, pl, params, opts.Recorder)
		if err != nil {
			return nil, err
		}
		return coarseToResult(cres), nil
	}
	engine, workers, err := core.ResolveSweepEngine(opts.Engine, opts.Workers)
	if err != nil {
		return nil, fmt.Errorf("linkclust: %w", err)
	}
	opts.Recorder.SetMeta("sweep_engine", engine)
	if engine == EngineSpill {
		return core.SweepSpilledOpts(ctx, g, pl, workers,
			core.SpillOptions{Dir: opts.SpillDir}, opts.Recorder)
	}
	return core.SweepParallelCtx(ctx, g, pl, workers, opts.Recorder)
}

// Sweep engine names accepted by ClusterOptions.Engine. Every name yields
// a bitwise-identical merge stream; the choice affects speed and memory
// only. EnginePipelined is a legacy name for the windowed engine, accepted
// so stored options and payloads that carry it still run.
const (
	EngineAuto      = core.SweepEngineAuto
	EngineSerial    = core.SweepEngineSerial
	EngineParallel  = core.SweepEngineParallel
	EnginePipelined = core.SweepEnginePipelined
	EngineSpill     = core.SweepEngineSpill
)

// Incremental streaming clustering. A Stream ingests edge arrivals and keeps
// the clustering current: only the similarity rows an arrival can affect are
// recomputed and spliced into the maintained sorted pair list, and each
// snapshot sweeps that list once. Snapshots are bitwise identical to a batch
// Cluster run on the accumulated graph — see internal/stream and DESIGN.md §9.
type (
	// Stream is the incremental clustering engine. All methods are safe for
	// concurrent use; a Snapshot observes all or none of a concurrent ingest.
	Stream = stream.Engine
	// StreamOptions configures a Stream (workers, recorder, vertex bound).
	// The zero value is usable.
	StreamOptions = stream.Options
	// Arrival is one streamed edge: endpoints and weight, validated exactly
	// like GraphBuilder.AddEdge; a repeated pair overwrites the weight.
	Arrival = stream.Arrival
)

// Stream counter names recorded on StreamOptions.Recorder. All are pure
// functions of the arrival sequence and batching — never of the worker count —
// so they join the golden worker-invariant set.
const (
	CtrStreamAffectedRows = stream.CtrAffectedRows
	CtrStreamBatches      = stream.CtrBatches
)

// NewStream returns an incremental clustering engine. Feed it with
// Stream.Ingest / Stream.IngestBatch (or their Ctx variants, which cancel at
// the established window points) and read the maintained clustering with
// Stream.Snapshot.
func NewStream(opt StreamOptions) (*Stream, error) { return stream.New(opt) }

// CoarseClusterCtx is CoarseCluster with cooperative cancellation, panic
// isolation, and optional instrumentation: the context is checked at every
// chunk boundary of the coarse sweep (and at every row-block claim of the
// initialization), bounding cancel latency by one chunk.
func CoarseClusterCtx(ctx context.Context, g *Graph, params CoarseParams, opts ClusterOptions) (*CoarseResult, error) {
	if opts.Workers != 0 {
		params.Workers = opts.Workers
	}
	pl, err := core.SimilarityCtx(ctx, g, params.Workers, opts.Recorder)
	if err != nil {
		return nil, err
	}
	return coarse.SweepCtx(ctx, g, pl, params, opts.Recorder)
}

// coarseToResult adapts a coarse-grained result to the fine-grained Result
// shape for the memory-budget degrade path: the merge stream, final chain,
// level counter, and processed-op count carry over directly. Coarse levels
// group many merges (one level per chunk), so dendrogram cuts behave
// identically but per-merge level granularity is coarser than Sweep's.
func coarseToResult(cres *coarse.Result) *core.Result {
	return &core.Result{
		Merges:         cres.Merges,
		Chain:          cres.Chain,
		Levels:         cres.Levels,
		PairsProcessed: cres.OpsProcessed,
	}
}

// CoarseClusterInstrumented is CoarseCluster with optional instrumentation:
// initialization and coarse-sweep phases, epoch counters, and the replica
// fan-out cost of parallel chunks land in opts.Recorder. opts.Workers, when
// non-zero, overrides params.Workers for both phases.
func CoarseClusterInstrumented(g *Graph, params CoarseParams, opts ClusterOptions) (*CoarseResult, error) {
	if opts.Workers != 0 {
		params.Workers = opts.Workers
	}
	pl := core.SimilarityParallelRecorded(g, params.Workers, opts.Recorder)
	return coarse.SweepRecorded(g, pl, params, opts.Recorder)
}

// DefaultCoarseParams returns the paper's experimental parameters
// (γ=2, φ=100, δ0=1000, η0=8, serial).
func DefaultCoarseParams() CoarseParams { return coarse.DefaultParams() }

// CoarseCluster runs Algorithm 1 (parallel when params.Workers > 1)
// followed by the coarse-grained sweeping algorithm of Section V.
// params.Workers is normalized exactly as in SimilarityParallel.
func CoarseCluster(g *Graph, params CoarseParams) (*CoarseResult, error) {
	return coarse.Sweep(g, core.SimilarityParallel(g, params.Workers), params)
}

// CoarseSweep runs only the coarse-grained sweeping phase over an existing
// pair list (sorted in place if needed) — useful when comparing sweeping
// strategies over one initialization, as the paper's Fig. 5(2) does.
func CoarseSweep(g *Graph, pl *PairList, params CoarseParams) (*CoarseResult, error) {
	return coarse.Sweep(g, pl, params)
}

// CoarseSweepCtx is CoarseSweep with cooperative cancellation, panic
// isolation, and optional instrumentation: the context is checked at every
// chunk boundary, bounding cancel latency by one chunk. It is the entry
// point for callers that already hold a pair list (for example from a
// similarity cache) and need the coarse phase alone — the degrade target of
// the memory-budget path when Phase I was skipped.
func CoarseSweepCtx(ctx context.Context, g *Graph, pl *PairList, params CoarseParams, rec *Recorder) (*CoarseResult, error) {
	return coarse.SweepCtx(ctx, g, pl, params, rec)
}

// NewDendrogram wraps a fine-grained result's merge stream.
func NewDendrogram(res *Result) *Dendrogram {
	return dendro.New(res.Chain.Len(), res.Merges)
}

// NewCoarseDendrogram wraps a coarse-grained result's merge stream.
func NewCoarseDendrogram(res *CoarseResult) *Dendrogram {
	return dendro.New(res.Chain.Len(), res.Merges)
}

// PartitionDensity scores an edge clustering with Ahn et al.'s partition
// density.
func PartitionDensity(g *Graph, labels []int32) float64 {
	return dendro.PartitionDensity(g, labels)
}

// BestCut returns the similarity threshold whose flat clustering maximizes
// partition density, with that density and clustering.
func BestCut(g *Graph, d *Dendrogram) (theta, density float64, labels []int32) {
	return dendro.BestCut(g, d)
}

// Communities groups an edge clustering into link communities, largest
// first.
func Communities(g *Graph, labels []int32) []Community {
	return dendro.Communities(g, labels)
}

// NodeMemberships lists, per vertex, the communities it belongs to;
// vertices with more than one membership are the overlaps link clustering
// reveals.
func NodeMemberships(g *Graph, comms []Community) [][]int {
	return dendro.NodeMemberships(g, comms)
}

// NewCorpus returns an empty corpus; feed it with AddDocument or ReadLines.
func NewCorpus() *Corpus { return corpus.New() }

// DefaultSynthConfig returns the harness's synthetic-corpus configuration.
func DefaultSynthConfig() SynthConfig { return corpus.DefaultSynthConfig() }

// SynthesizeCorpus generates a deterministic tweet-like corpus.
func SynthesizeCorpus(cfg SynthConfig) *Corpus { return corpus.Synthesize(cfg) }

// BuildWordGraph constructs the word-association network over the top
// fraction alpha of the corpus vocabulary with PMI edge weights (Eq. 3).
func BuildWordGraph(c *Corpus, alpha float64, opts AssocOptions) (*Graph, error) {
	return assoc.Build(c, alpha, opts)
}

// Benchmarking against planted ground truth.
type (
	// PlantedConfig parameterizes the overlapping-community benchmark
	// generator.
	PlantedConfig = planted.Config
	// PlantedBenchmark is a generated graph with its ground-truth cover.
	PlantedBenchmark = planted.Benchmark
	// Cover is a set of (possibly overlapping) node communities.
	Cover = onmi.Cover
)

// DefaultPlantedConfig returns a moderate planted benchmark configuration.
func DefaultPlantedConfig() PlantedConfig { return planted.DefaultConfig() }

// GeneratePlanted builds a benchmark graph with known overlapping
// communities.
func GeneratePlanted(cfg PlantedConfig) (*PlantedBenchmark, error) {
	return planted.Generate(cfg)
}

// CompareCovers returns the overlapping normalized mutual information
// (Lancichinetti et al. 2009) between two covers over n nodes: 1 for
// identical covers, near 0 for independent ones.
func CompareCovers(x, y Cover, n int) (float64, error) {
	return onmi.Compare(x, y, n)
}

// CoverOf extracts the node cover induced by a set of link communities —
// the recovered counterpart of a planted ground-truth cover.
func CoverOf(comms []Community) Cover {
	out := make(Cover, 0, len(comms))
	for _, c := range comms {
		out = append(out, append([]int32(nil), c.Nodes...))
	}
	return out
}

// Coverage returns the fraction of edges whose endpoints share a community
// of the cover.
func Coverage(g *Graph, cover Cover) float64 {
	return metrics.Coverage(g, cover)
}

// MeanConductance averages the weighted conductance of the cover's
// communities; lower is better.
func MeanConductance(g *Graph, cover Cover) float64 {
	return metrics.MeanConductance(g, cover)
}

// OverlapModularity computes the extended modularity EQ (Shen et al. 2009)
// of a possibly overlapping cover.
func OverlapModularity(g *Graph, cover Cover) (float64, error) {
	return metrics.OverlapModularity(g, cover)
}
