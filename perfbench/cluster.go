package main

import (
	"context"
	"time"

	"linkclust"
	"linkclust/internal/bench"
)

// clusterSpec is the input of cluster-wordassoc.
type clusterSpec struct {
	size   bench.Size
	alphas []float64
}

var (
	clusterFull  = clusterSpec{bench.SizeMedium, []float64{0.0005, 0.001}}
	clusterShort = clusterSpec{bench.SizeSmall, []float64{0.0002}}
)

// runCluster is cluster-wordassoc: one op is ClusterCtx with default options
// on every graph, once with one worker and once with nproc workers, the
// order alternating between ops.
func runCluster(rc runConfig) (*outcome, error) {
	spec := clusterFull
	if rc.short {
		spec = clusterShort
	}
	o := newOutcome()
	var graphs []*linkclust.Graph
	err := timeSetup(o, 1, func() (err error) {
		graphs, err = wordGraphs(rc.seed, spec.size, spec.alphas)
		return err
	}, nil)
	if err != nil {
		return nil, err
	}

	// References: the serial Cluster's merge-stream digest per graph.
	refs := make([][32]byte, len(graphs))
	var edges int64
	for i, g := range graphs {
		res, err := linkclust.Cluster(g)
		if err != nil {
			return nil, err
		}
		if refs[i], _, err = mergesSHA(g.NumEdges(), res.Merges); err != nil {
			return nil, err
		}
		edges += int64(g.NumEdges())
	}
	if rc.corrupt {
		refs[0][0] ^= 1
	}
	o.detail["edges"] = edges

	ctx := context.Background()
	workers := []int{1, rc.nproc}
	var tr *tracer
	if rc.trace {
		tr = newTracer()
	}
	var t1Secs, tnSecs float64
	firstTraced := true
	l, err := libraryLoop(rc, 1, rc.nproc, func(i int, traced bool) (float64, error) {
		order := workers
		if i/2%2 == 1 {
			order = []int{workers[1], workers[0]}
		}
		var rec *linkclust.Recorder
		var opTr *tracer
		if traced {
			rec, opTr = linkclust.NewRecorder(), tr
		}
		var opSecs float64
		for gi, g := range graphs {
			for _, w := range order {
				t0 := time.Now()
				root := opTr.begin("op", -1, i)
				res, err := clusterCall(ctx, g, w, opTr, root, i, rec)
				opTr.end(root)
				d := time.Since(t0).Seconds()
				if err != nil {
					return 0, err
				}
				opSecs += d
				if w == 1 {
					t1Secs += d
				} else {
					tnSecs += d
				}
				got, _, err := mergesSHA(g.NumEdges(), res.Merges)
				if err != nil {
					return 0, err
				}
				if got != refs[gi] {
					return 0, mismatch("graph %d at T=%d: merge stream %x, reference %x", gi, w, got[:8], refs[gi][:8])
				}
			}
		}
		if traced && firstTraced {
			coreCounts(rec, o.metrics)
			firstTraced = false
		}
		return opSecs, nil
	})
	if err != nil {
		return nil, err
	}
	all := l.all()
	o.setOps(all, 2*edges*int64(len(all)), sum(all), libraryTailPct, l.cal)
	o.metrics["peak_rss_mb"] = l.rssMB
	ops := float64(len(all))
	o.detail["cluster_t1_edges_per_s"] = float64(edges) * ops / t1Secs
	o.detail["cluster_edges_per_s"] = float64(edges) * ops / tnSecs
	o.detail["speedup"] = t1Secs / tnSecs
	if rc.trace {
		traceMetrics(o, tr, l, nil)
	}
	return o, nil
}
