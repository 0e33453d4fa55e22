package graph

import (
	"errors"
	"math"
	"testing"

	"linkclust/internal/rng"
)

// requireGraphsIdentical asserts two graphs are element-wise identical:
// vertex and edge counts, edge records in id order, and adjacency rows entry
// for entry.
func requireGraphsIdentical(t *testing.T, label string, got, want *Graph) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() {
		t.Fatalf("%s: %d vertices, want %d", label, got.NumVertices(), want.NumVertices())
	}
	if got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: %d edges, want %d", label, got.NumEdges(), want.NumEdges())
	}
	for e := range want.Edges() {
		if got.Edge(e) != want.Edge(e) {
			t.Fatalf("%s: edge %d = %+v, want %+v", label, e, got.Edge(e), want.Edge(e))
		}
	}
	for v := 0; v < want.NumVertices(); v++ {
		gn, wn := got.Neighbors(v), want.Neighbors(v)
		if len(gn) != len(wn) {
			t.Fatalf("%s: vertex %d has %d neighbors, want %d", label, v, len(gn), len(wn))
		}
		for i := range wn {
			if gn[i] != wn[i] {
				t.Fatalf("%s: adj[%d][%d] = %+v, want %+v", label, v, i, gn[i], wn[i])
			}
		}
	}
}

// TestDynamicMatchesBuilder feeds identical arrival sequences — including
// duplicate overwrites — to a Dynamic and a Builder and requires the
// resulting graphs to be element-wise identical, for several random
// sequences.
func TestDynamicMatchesBuilder(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		src := rng.New(seed)
		n := 8 + src.Intn(24)
		d := NewDynamic()
		if err := d.EnsureVertices(n); err != nil {
			t.Fatal(err)
		}
		b := NewBuilder(n)
		for i := 0; i < 6*n; i++ {
			u, v := src.Intn(n), src.Intn(n)
			w := 0.25 + src.Float64()
			if u == v {
				continue
			}
			if err := b.AddEdge(u, v, w); err != nil {
				t.Fatal(err)
			}
			if _, _, err := d.AddEdge(u, v, w); err != nil {
				t.Fatal(err)
			}
		}
		requireGraphsIdentical(t, "dynamic vs builder", d.Snapshot(), b.Build(nil))
	}
}

// TestDynamicValidation mirrors Builder.AddEdge's typed rejections.
func TestDynamicValidation(t *testing.T) {
	d := NewDynamic()
	if err := d.EnsureVertices(4); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		u, v int
		w    float64
		want error
	}{
		{-1, 2, 1, ErrVertexRange},
		{0, 4, 1, ErrVertexRange},
		{2, 2, 1, ErrSelfLoop},
		{0, 1, 0, ErrBadWeight},
		{0, 1, -3, ErrBadWeight},
		{0, 1, math.NaN(), ErrBadWeight},
		{0, 1, math.Inf(1), ErrBadWeight},
	}
	for _, c := range cases {
		if _, _, err := d.AddEdge(c.u, c.v, c.w); !errors.Is(err, c.want) {
			t.Errorf("AddEdge(%d,%d,%v): err = %v, want %v", c.u, c.v, c.w, err, c.want)
		}
	}
	if d.NumEdges() != 0 {
		t.Fatalf("rejected arrivals added %d edges", d.NumEdges())
	}
	if err := d.EnsureVertices(maxDynamicVertices + 1); !errors.Is(err, ErrVertexRange) {
		t.Fatalf("oversized EnsureVertices: err = %v, want ErrVertexRange", err)
	}
}

// TestDynamicSnapshotIsolation takes a snapshot mid-stream and checks that
// later arrivals — inserts touching snapshot rows, weight overwrites, vertex
// growth — never change what the snapshot sees.
func TestDynamicSnapshotIsolation(t *testing.T) {
	d := NewDynamic()
	if err := d.EnsureVertices(4); err != nil {
		t.Fatal(err)
	}
	mustAdd := func(u, v int, w float64) {
		t.Helper()
		if _, _, err := d.AddEdge(u, v, w); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(0, 1, 1)
	mustAdd(1, 2, 2)
	snap := d.Snapshot()

	ref := NewBuilder(4)
	ref.MustAddEdge(0, 1, 1)
	ref.MustAddEdge(1, 2, 2)
	want := ref.Build(nil)

	// Mutate everything the snapshot can reach: overwrite an edge weight,
	// insert into a snapshot row, and grow the vertex set.
	mustAdd(0, 1, 9)
	mustAdd(1, 3, 4)
	if err := d.EnsureVertices(10); err != nil {
		t.Fatal(err)
	}
	mustAdd(1, 9, 5)

	requireGraphsIdentical(t, "snapshot after mutations", snap, want)

	// The live view reflects every mutation and still matches a Builder fed
	// the same sequence.
	ref2 := NewBuilder(10)
	ref2.MustAddEdge(0, 1, 1)
	ref2.MustAddEdge(1, 2, 2)
	ref2.MustAddEdge(0, 1, 9)
	ref2.MustAddEdge(1, 3, 4)
	ref2.MustAddEdge(1, 9, 5)
	requireGraphsIdentical(t, "live view after mutations", d.Snapshot(), ref2.Build(nil))
}

// TestDynamicOverwriteKeepsEdgeID pins the Builder-compatible last-write-wins
// semantics: an overwrite keeps the original edge id and reports overwrote.
func TestDynamicOverwriteKeepsEdgeID(t *testing.T) {
	d := NewDynamic()
	if err := d.EnsureVertices(3); err != nil {
		t.Fatal(err)
	}
	id0, over, err := d.AddEdge(2, 1, 1)
	if err != nil || over {
		t.Fatalf("first add: id=%d over=%v err=%v", id0, over, err)
	}
	id1, _, err := d.AddEdge(0, 1, 1)
	if err != nil || id1 != 1 {
		t.Fatalf("second add: id=%d err=%v", id1, err)
	}
	// Same pair, either orientation, overwrites in place.
	id2, over, err := d.AddEdge(1, 2, 7)
	if err != nil || !over || id2 != id0 {
		t.Fatalf("overwrite: id=%d over=%v err=%v, want id=%d over=true", id2, over, err, id0)
	}
	g := d.Snapshot()
	if e := g.Edge(int(id0)); e.U != 1 || e.V != 2 || e.Weight != 7 {
		t.Fatalf("edge %d = %+v, want {1 2 7}", id0, e)
	}
	if w := g.Weight(2, 1); w != 7 {
		t.Fatalf("adjacency weight %v, want 7", w)
	}
}
