package main

import (
	"context"
	"time"

	"linkclust"
	"linkclust/internal/bench"
)

// streamSpec is the input of stream-trickle: the graph's edges arrive in
// edge-id order; set-up ingests all but tailBatches×batch of them.
type streamSpec struct {
	size        bench.Size
	alpha       float64
	batch       int
	tailBatches int
	// minOps is the fewest batches a run measures.
	minOps int
}

var (
	streamFull  = streamSpec{bench.SizeSmall, 0.005, 64, 64, 8}
	streamShort = streamSpec{bench.SizeSmall, 0.0005, 16, 8, 2}
)

// prefixGraph builds the graph of a stream's arrivals so far, with edge ids
// in arrival order as the stream assigns them.
func prefixGraph(edges []linkclust.Edge) (*linkclust.Graph, error) {
	n := 0
	for _, e := range edges {
		n = max(n, int(e.U)+1, int(e.V)+1)
	}
	b := linkclust.NewGraphBuilder(n)
	for _, e := range edges {
		if err := b.AddEdge(int(e.U), int(e.V), e.Weight); err != nil {
			return nil, err
		}
	}
	return b.Build(nil), nil
}

func arrivals(edges []linkclust.Edge) []linkclust.Arrival {
	out := make([]linkclust.Arrival, len(edges))
	for i, e := range edges {
		out[i] = linkclust.Arrival{U: int(e.U), V: int(e.V), W: e.Weight}
	}
	return out
}

// runStream is stream-trickle: one op is IngestBatch of one batch of
// arrivals followed by Snapshot, on a stream with nproc workers and every
// other option at its default.
func runStream(rc runConfig) (*outcome, error) {
	spec := streamFull
	if rc.short {
		spec = streamShort
	}
	o := newOutcome()
	var (
		edges []linkclust.Edge
		st    *linkclust.Stream
		rec   *linkclust.Recorder
	)
	err := timeSetup(o, rc.nproc, func() error {
		gs, err := wordGraphs(rc.seed, spec.size, []float64{spec.alpha})
		if err != nil {
			return err
		}
		edges = gs[0].Edges()
		if rc.trace {
			rec = linkclust.NewRecorder()
		}
		st, err = linkclust.NewStream(linkclust.StreamOptions{Workers: rc.nproc, Recorder: rec})
		if err != nil {
			return err
		}
		if err := st.IngestBatch(arrivals(edges[:len(edges)-spec.tailBatches*spec.batch])); err != nil {
			return err
		}
		_, err = st.Snapshot()
		return err
	}, func() error {
		st, edges = nil, nil
		return nil
	})
	if err != nil {
		return nil, err
	}
	base := len(edges) - spec.tailBatches*spec.batch
	tailArr := arrivals(edges[base:])
	o.detail["edges_at_setup"] = base

	ctx := context.Background()
	var tr *tracer
	if rc.trace {
		tr = newTracer()
	}
	var (
		replayed, k2 int64
		digests      [][32]byte // each measured snapshot's merge stream
	)
	exhausted := false
	l, err := libraryLoop(rc, spec.minOps, rc.nproc, func(i int, traced bool) (float64, error) {
		if i >= spec.tailBatches {
			// Only a program far faster than today's can get here; the run
			// then ends early rather than measure a different graph.
			exhausted = true
			return 0, errStop
		}
		opTr := tr
		if !traced {
			opTr = nil
		}
		rows, compactions, replays := rec.Counter("stream.affected_rows"),
			rec.Counter("stream.compactions"), rec.Counter("stream.replayed_ops")
		var (
			res *linkclust.Result
			err error
		)
		batch := tailArr[i*spec.batch : (i+1)*spec.batch]
		t0 := time.Now()
		root := opTr.begin("op", -1, i)
		opTr.call("stream.ingest", root, i, func() { err = st.IngestBatchCtx(ctx, batch) })
		if err == nil {
			opTr.call("stream.snapshot", root, i, func() { res, err = st.SnapshotCtx(ctx) })
		}
		opTr.end(root)
		d := time.Since(t0).Seconds()
		if err != nil {
			return 0, err
		}
		got, _, err := mergesSHA(base+(i+1)*spec.batch, res.Merges)
		if err != nil {
			return 0, err
		}
		digests = append(digests, got)
		if rc.trace && i < spec.minOps {
			o.metrics["stream.affected_rows"] += float64(rec.Counter("stream.affected_rows") - rows)
			o.metrics["stream.compactions"] += float64(rec.Counter("stream.compactions") - compactions)
			replayed += rec.Counter("stream.replayed_ops") - replays
			k2 += res.PairsProcessed
		}
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	o.detail["tail_exhausted"] = exhausted

	// Every measured snapshot must equal a serial Cluster of the same prefix.
	for i, got := range digests {
		g, err := prefixGraph(edges[:base+(i+1)*spec.batch])
		if err != nil {
			return nil, err
		}
		res, err := linkclust.Cluster(g)
		if err != nil {
			return nil, err
		}
		ref, _, err := mergesSHA(g.NumEdges(), res.Merges)
		if err != nil {
			return nil, err
		}
		if rc.corrupt && i == 0 {
			ref[0] ^= 1
		}
		if got != ref {
			return nil, mismatch("snapshot after batch %d: merge stream %x, reference %x", i+1, got[:8], ref[:8])
		}
	}
	all := l.all()
	o.setOps(all, int64(spec.batch*len(all)), sum(all), libraryTailPct, l.cal)
	o.metrics["peak_rss_mb"] = l.rssMB
	o.detail["stream_batch_s_p50"] = o.detail["raw_op_s_p50"]
	if rc.trace {
		if k2 > 0 {
			o.metrics["stream.replay_share"] = float64(replayed) / float64(k2)
		}
		traceMetrics(o, tr, l, map[string]string{
			"stream.ingest": "stream.ingest_s", "stream.snapshot": "stream.snapshot_s",
		})
	}
	return o, nil
}
