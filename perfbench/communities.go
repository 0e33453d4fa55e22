package main

import (
	"context"
	"math"
	"time"

	"linkclust"
	"linkclust/internal/bench"
)

var (
	communitiesFull  = clusterSpec{bench.SizeSmall, []float64{0.0003, 0.0005}}
	communitiesShort = clusterSpec{bench.SizeSmall, []float64{0.0002}}
)

// cut is the outcome of a best-density cut: the threshold, the density and
// the number of communities it yields.
type cut struct {
	theta, density float64
	communities    int
}

func (c cut) same(d cut) bool {
	return math.Float64bits(c.theta) == math.Float64bits(d.theta) &&
		math.Float64bits(c.density) == math.Float64bits(d.density) && c.communities == d.communities
}

// runCommunities is communities-t1: one op takes every graph to overlapping
// communities the way the CLI's -communities, quickstart and wordassoc
// paths do: ClusterCtx with default options (one worker), NewDendrogram,
// BestCut, Communities.
func runCommunities(rc runConfig) (*outcome, error) {
	spec := communitiesFull
	if rc.short {
		spec = communitiesShort
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

	// References: the cut chosen on the serial Cluster's dendrogram.
	refs := make([]cut, len(graphs))
	var edges int64
	cuts := 0
	for i, g := range graphs {
		res, err := linkclust.Cluster(g)
		if err != nil {
			return nil, err
		}
		d := linkclust.NewDendrogram(res)
		var labels []int32
		refs[i].theta, refs[i].density, labels = linkclust.BestCut(g, d)
		refs[i].communities = len(linkclust.Communities(g, labels))
		edges += int64(g.NumEdges())
		cuts += len(d.Thresholds()) + 1 // BestCut also tries the all-singletons cut
	}
	if rc.corrupt {
		refs[0].density = math.Nextafter(refs[0].density, 2)
	}
	o.detail["edges"] = edges

	ctx := context.Background()
	var tr *tracer
	if rc.trace {
		tr = newTracer()
		o.metrics["dendro.cuts_scanned"] = float64(cuts)
	}
	firstTraced := true
	l, err := libraryLoop(rc, 1, 1, func(i int, traced bool) (float64, error) {
		var rec *linkclust.Recorder
		var opTr *tracer
		if traced {
			rec, opTr = linkclust.NewRecorder(), tr
		}
		var opSecs float64
		for gi, g := range graphs {
			var got cut
			t0 := time.Now()
			root := opTr.begin("op", -1, i)
			res, err := clusterCall(ctx, g, 1, opTr, root, i, rec)
			if err == nil {
				var d *linkclust.Dendrogram
				var labels []int32
				opTr.call("dendro.new", root, i, func() { d = linkclust.NewDendrogram(res) })
				opTr.call("dendro.bestcut", root, i, func() { got.theta, got.density, labels = linkclust.BestCut(g, d) })
				opTr.call("dendro.communities", root, i, func() { got.communities = len(linkclust.Communities(g, labels)) })
			}
			opTr.end(root)
			opSecs += time.Since(t0).Seconds()
			if err != nil {
				return 0, err
			}
			if !got.same(refs[gi]) {
				return 0, mismatch("graph %d: cut %+v, reference %+v", gi, got, refs[gi])
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
	o.setOps(all, edges*int64(len(all)), sum(all), libraryTailPct, l.cal)
	o.metrics["peak_rss_mb"] = l.rssMB
	o.detail["communities_edges_per_s"] = o.detail["raw_edges_per_s"]
	if rc.trace {
		// NewDendrogram only wraps the merge stream; its self time joins
		// BestCut's, the dendrogram layer's main cost.
		traceMetrics(o, tr, l, map[string]string{
			"dendro.new": "dendro.bestcut_s", "dendro.bestcut": "dendro.bestcut_s",
			"dendro.communities": "dendro.communities_s",
		})
	}
	return o, nil
}
