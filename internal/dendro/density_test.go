package dendro_test

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"linkclust/internal/assoc"
	"linkclust/internal/bench"
	"linkclust/internal/coarse"
	"linkclust/internal/core"
	"linkclust/internal/corpus"
	"linkclust/internal/dendro"
	"linkclust/internal/graph"
	"linkclust/internal/planted"
	"linkclust/internal/rng"
)

// bestCutExhaustive is the reference for BestCut: it rebuilds and scores
// every candidate cut from scratch, O(T·(M + m)) for T distinct merge
// similarities, M merges and m edges.
func bestCutExhaustive(g *graph.Graph, d *dendro.Dendrogram) (theta float64, density float64, labels []int32) {
	best := -1.0
	candidates := append(d.Thresholds(), 2) // 2 = above everything: singletons
	sort.Sort(sort.Reverse(sort.Float64Slice(candidates)))
	for _, th := range candidates {
		l := d.CutSim(th)
		dens := dendro.PartitionDensity(g, l)
		if dens > best {
			best, theta, labels = dens, th, l
		}
	}
	return theta, best, labels
}

// checkBestCut requires BestCut to pick the reference's threshold bitwise,
// return its labels, and report exactly PartitionDensity of those labels.
func checkBestCut(t testing.TB, name string, g *graph.Graph, d *dendro.Dendrogram) {
	t.Helper()
	theta, density, labels := dendro.BestCut(g, d)
	wantTheta, wantDensity, wantLabels := bestCutExhaustive(g, d)
	if math.Float64bits(theta) != math.Float64bits(wantTheta) {
		t.Fatalf("%s: theta %v (density %v), reference theta %v (density %v)", name, theta, density, wantTheta, wantDensity)
	}
	if !slices.Equal(labels, wantLabels) {
		t.Fatalf("%s: labels differ from the reference at theta %v", name, theta)
	}
	if got := dendro.PartitionDensity(g, labels); math.Float64bits(density) != math.Float64bits(got) {
		t.Fatalf("%s: returned density %v, PartitionDensity of its labels %v", name, density, got)
	}
}

func strictMerges(t testing.TB, g *graph.Graph) []core.Merge {
	t.Helper()
	res, err := core.Cluster(g)
	if err != nil {
		t.Fatal(err)
	}
	return res.Merges
}

func strictDendrogram(t testing.TB, g *graph.Graph) *dendro.Dendrogram {
	t.Helper()
	return dendro.New(g.NumEdges(), strictMerges(t, g))
}

func twoCliques() *graph.Graph {
	b := graph.NewBuilder(7)
	for _, base := range []int{0, 3} {
		for u := base; u < base+4; u++ {
			for v := u + 1; v < base+4; v++ {
				b.MustAddEdge(u, v, 1)
			}
		}
	}
	return b.Build(nil)
}

func TestBestCutMatchesExhaustive(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"paper":       graph.PaperExample(),
		"two-cliques": twoCliques(),
		"er-sparse":   graph.ErdosRenyi(40, 0.1, rng.New(3)),
		"er-dense":    graph.ErdosRenyi(25, 0.4, rng.New(4)),
	}
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := planted.DefaultConfig()
		cfg.Nodes, cfg.Seed = 120, seed
		pb, err := planted.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		graphs[fmt.Sprintf("planted-%d", seed)] = pb.Graph
	}
	for name, g := range graphs {
		checkBestCut(t, name, g, strictDendrogram(t, g))
	}
}

func TestBestCutCoarseStreams(t *testing.T) {
	cfg := planted.DefaultConfig()
	cfg.Nodes = 150
	pb, err := planted.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := pb.Graph
	params := coarse.DefaultParams()
	params.Phi, params.Delta0 = 1, 50
	res, err := coarse.Sweep(g, core.Similarity(g), params)
	if err != nil {
		t.Fatal(err)
	}
	checkBestCut(t, "coarse sweep", g, dendro.New(g.NumEdges(), res.Merges))

	merges := strictMerges(t, g)
	// Rounded similarities: long runs of merges share one threshold.
	for i := range merges {
		merges[i].Sim = math.Round(merges[i].Sim*10) / 10
	}
	checkBestCut(t, "rounded sims", g, dendro.New(g.NumEdges(), merges))
	// A shuffled stream: cuts depend only on the merge set, so BestCut must
	// not rely on the stream's order.
	perm := rng.New(9).Perm(len(merges))
	shuffled := make([]core.Merge, len(merges))
	for i, p := range perm {
		shuffled[i] = merges[p]
	}
	checkBestCut(t, "shuffled rounded sims", g, dendro.New(g.NumEdges(), shuffled))
}

func TestBestCutDegenerate(t *testing.T) {
	// No edges at all.
	empty := graph.NewBuilder(3).Build(nil)
	checkBestCut(t, "edge-less graph", empty, dendro.New(0, nil))
	// Edges but no merges: the singleton cut at theta 2.
	g := graph.Complete(4)
	checkBestCut(t, "empty dendrogram", g, dendro.New(g.NumEdges(), nil))
	theta, density, labels := dendro.BestCut(g, dendro.New(g.NumEdges(), nil))
	if theta != 2 || density != 0 || len(labels) != g.NumEdges() {
		t.Fatalf("empty dendrogram: theta %v density %v labels %v", theta, density, labels)
	}
}

var smallCorpus = sync.OnceValue(func() *corpus.Corpus {
	cfg, _ := bench.DefaultConfig(bench.SizeSmall)
	return corpus.Synthesize(cfg.Corpus)
})

// wordGraph is the small-preset word-association graph at α label alpha,
// its edge ids permuted by seed.
func wordGraph(t testing.TB, alpha float64, seed uint64) *graph.Graph {
	t.Helper()
	cfg, err := bench.DefaultConfig(bench.SizeSmall)
	if err != nil {
		t.Fatal(err)
	}
	g, err := assoc.Build(smallCorpus(), math.Min(alpha*cfg.AlphaScale, 1), assoc.Options{EdgePermSeed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBestCutWordGraphs(t *testing.T) {
	for _, alpha := range []float64{0.0002, 0.0003, 0.0005, 0.001} {
		for seed := uint64(1); seed <= 3; seed++ {
			g := wordGraph(t, alpha, seed)
			checkBestCut(t, fmt.Sprintf("α=%g seed %d", alpha, seed), g, strictDendrogram(t, g))
		}
	}
}

func TestPartitionDensityDeterministic(t *testing.T) {
	g := wordGraph(t, 0.001, 1)
	_, _, labels := dendro.BestCut(g, strictDendrogram(t, g))
	want := math.Float64bits(dendro.PartitionDensity(g, labels))
	for i := 0; i < 50; i++ {
		if got := math.Float64bits(dendro.PartitionDensity(g, labels)); got != want {
			t.Fatalf("call %d: density bits %x, first call %x", i, got, want)
		}
	}
	// Labels outside [0, m) that keep the same order give the same sum.
	shifted := make([]int32, len(labels))
	for e, l := range labels {
		shifted[e] = 7*l - 1000
	}
	if got := math.Float64bits(dendro.PartitionDensity(g, shifted)); got != want {
		t.Fatalf("order-preserving relabel: density bits %x, want %x", got, want)
	}
}

// FuzzBestCut decodes a small weighted graph (first byte: vertex count
// 2..24; each following triple: an edge u, v with one of eight weights),
// clusters it, and compares BestCut with the exhaustive reference.
func FuzzBestCut(f *testing.F) {
	f.Add([]byte{4, 0, 1, 1, 1, 2, 1, 2, 3, 1, 0, 2, 1})
	f.Add([]byte{7, 0, 1, 0, 0, 2, 0, 1, 2, 0, 2, 3, 5, 3, 4, 0, 3, 5, 0, 4, 5, 0})
	f.Add([]byte{24, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 2 + int(data[0])%23
		b := graph.NewBuilder(n)
		for i := 1; i+2 < len(data); i += 3 {
			u, v := int(data[i])%n, int(data[i+1])%n
			if u != v {
				_ = b.AddEdge(u, v, 0.25+float64(data[i+2]%8)/4) // duplicates rejected
			}
		}
		g := b.Build(nil)
		checkBestCut(t, "fuzz", g, strictDendrogram(t, g))
	})
}

func BenchmarkBestCut(b *testing.B) {
	g := wordGraph(b, 0.0005, 1)
	d := strictDendrogram(b, g)
	for b.Loop() {
		dendro.BestCut(g, d)
	}
}
