package main

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"time"

	"linkclust"
	"linkclust/internal/par"
)

// clusterCall runs ClusterCtx(g) with default options and w workers. Traced,
// it makes the calls ClusterCtx makes at those options instead, each inside
// a span under parent, counting into rec.
func clusterCall(ctx context.Context, g *linkclust.Graph, w int, tr *tracer, parent, op int, rec *linkclust.Recorder) (*linkclust.Result, error) {
	if tr == nil {
		return linkclust.ClusterCtx(ctx, g, linkclust.ClusterOptions{Workers: w})
	}
	res, _, err := clusterSteps(ctx, g, w, tr, parent, op, rec, false)
	return res, err
}

// clusterSteps makes the calls ClusterCtx makes with default options and w
// workers — Phase I, the sort, then the windowed-parallel sweep (w > 1) or
// the serial one — each inside a span when tr is non-nil. With keepPairs it
// also returns the unsorted pair list, as the daemon's pair-list cache
// keeps it.
func clusterSteps(ctx context.Context, g *linkclust.Graph, w int, tr *tracer, parent, op int, rec *linkclust.Recorder, keepPairs bool) (*linkclust.Result, *linkclust.PairList, error) {
	var (
		pl, kept *linkclust.PairList
		res      *linkclust.Result
		err      error
	)
	tr.call("similarity", parent, op, func() { pl, err = linkclust.SimilarityCtx(ctx, g, w, rec) })
	if err != nil {
		return nil, nil, err
	}
	if keepPairs {
		kept = &linkclust.PairList{Pairs: slices.Clone(pl.Pairs)}
	}
	// The serial sweep sorts with every CPU (par.DefaultCap); the parallel
	// one with its own worker count.
	sortWorkers := w
	if w <= 1 {
		sortWorkers = par.DefaultCap()
	}
	tr.call("sort", parent, op, func() { err = pl.SortWorkersCtx(ctx, sortWorkers) })
	if err != nil {
		return nil, nil, err
	}
	tr.call("sweep", parent, op, func() {
		if w > 1 {
			res, err = linkclust.SweepParallelCtx(ctx, g, pl, w, rec)
		} else {
			res, err = linkclust.SweepCtx(ctx, g, pl, rec)
		}
	})
	return res, kept, err
}

// coreCounts turns a recorder's Phase I and Phase II counters into the
// per-layer count metrics.
func coreCounts(rec *linkclust.Recorder, into map[string]float64) {
	for _, c := range []string{"similarity.pairs", "similarity.incident_pairs",
		"sweep.chain_rewrites", "sweep.windows", "sweep.rounds", "sweep.noop_drops"} {
		into[c] += float64(rec.Counter(c))
	}
	if p := rec.Counter("sweep.pairs_processed"); p > 0 {
		into["sweep.merges_per_op"] = float64(rec.Counter("sweep.merges")) / float64(p)
	}
}

// errStop ends a libraryLoop early, keeping the ops measured so far.
var errStop = errors.New("no more input")

// libraryTailPct is the tail percentile of the library workloads. They
// complete 4 to 13 ops per run, too few for any percentile above the median
// to have ten samples beyond it; the 90th is the slow end of a run without
// resting on its single slowest op.
const libraryTailPct = 90

// loopResult is what libraryLoop measured.
type loopResult struct {
	untraced, traced []float64 // op seconds
	cal              []float64 // calibration seconds, one per op
	rssMB            float64   // median over ops of the peak RSS during one op
}

// all returns every op's seconds.
func (l loopResult) all() []float64 { return append(slices.Clone(l.untraced), l.traced...) }

// libraryLoop runs op(i, traced) until the run's time is up and at least
// minOps ops ran. Before each op, outside its time, it collects the heap —
// so no op pays for the garbage of the one before it, and its peak RSS does
// not depend on where collections happen to fall — and times the
// calibration kernel on calThreads threads. In a traced run every other op
// is traced, so the traced and untraced ops share one process and one state
// and trace.overhead_share compares like with like.
func libraryLoop(rc runConfig, minOps, calThreads int, op func(i int, traced bool) (float64, error)) (loopResult, error) {
	var (
		l   loopResult
		rss []float64
	)
	deadline := time.Now().Add(time.Duration(rc.seconds * float64(time.Second)))
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		runtime.GC()
		cal := calibrate(calThreads)
		runtime.GC()
		resetPeakRSS()
		t := rc.trace && i%2 == 1
		d, err := op(i, t)
		if errors.Is(err, errStop) {
			break
		}
		if err != nil {
			return l, err
		}
		peak, err := peakRSSMB("self")
		if err != nil {
			return l, err
		}
		rss = append(rss, peak)
		l.cal = append(l.cal, cal)
		if t {
			l.traced = append(l.traced, d)
		} else {
			l.untraced = append(l.untraced, d)
		}
	}
	l.rssMB = median(rss)
	return l, nil
}

// traceMetrics fills the trace.* metrics and each layer's self time per
// traced op from a traced run. Span "op" is an op's root: its self time is
// the wall time no layer span covers.
func traceMetrics(o *outcome, tr *tracer, l loopResult, rename map[string]string) {
	addSelfTimes(o, tr, rename)
	if root := tr.rootSeconds(); root > 0 {
		o.metrics["trace.unaccounted_share"] = tr.selfTimes()["op"] / root
	}
	if len(l.untraced) > 0 && len(l.traced) > 0 {
		o.metrics["trace.overhead_share"] = median(l.traced)/median(l.untraced) - 1
	}
	o.detail["traced_ops"] = len(l.traced)
	o.detail["untraced_ops"] = len(l.untraced)
}

// addSelfTimes adds each span name's self time per traced op to the
// metrics, as name+".s" unless rename maps it ("" drops it). Root spans
// ("op") are left to the caller.
func addSelfTimes(o *outcome, tr *tracer, rename map[string]string) {
	n := float64(tr.ops())
	if n == 0 {
		return
	}
	for span, s := range tr.selfTimes() {
		name, ok := rename[span]
		if !ok {
			name = span + ".s"
		}
		if span != "op" && name != "" {
			o.metrics[name] += s / n
		}
	}
}
