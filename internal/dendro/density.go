package dendro

import (
	"cmp"
	"maps"
	"math"
	"slices"

	"linkclust/internal/core"
	"linkclust/internal/graph"
	"linkclust/internal/unionfind"
)

// PartitionDensity computes the partition density of an edge clustering
// (Ahn et al. 2010):
//
//	D = (2/M) Σ_c m_c · (m_c - n_c + 1) / ((n_c - 2)(n_c - 1)),
//
// where m_c is the number of links in community c and n_c the number of
// vertices those links touch. Communities with n_c = 2 (a single link, or
// parallel structure collapsing to two nodes) contribute 0 by convention.
// labels[e] is the cluster id of edge e. The sum runs in ascending label
// order, so equal inputs give bitwise-equal results.
func PartitionDensity(g *graph.Graph, labels []int32) float64 {
	m := g.NumEdges()
	if m == 0 {
		return 0
	}
	labels = labels[:m]
	if slices.ContainsFunc(labels, func(l int32) bool { return l < 0 || int(l) >= m }) {
		// Ranks among the distinct labels keep the summation order.
		distinct := slices.Compact(slices.Sorted(slices.Values(labels)))
		ranked := make([]int32, m)
		for e, l := range labels {
			r, _ := slices.BinarySearch(distinct, l)
			ranked[e] = int32(r)
		}
		labels = ranked
	}
	links, nodes := make([]int32, m), make([]int32, m)
	stamp := make([]int32, m) // stamp[c] == v+1 once vertex v is counted in community c
	for v := range int32(g.NumVertices()) {
		for _, h := range g.Neighbors(int(v)) {
			if c := labels[h.Edge]; stamp[c] != v+1 {
				stamp[c] = v + 1
				nodes[c]++
			}
		}
	}
	for _, c := range labels {
		links[c]++
	}
	var d float64
	for c := range links {
		d += communityTerm(links[c], nodes[c])
	}
	return 2 * d / float64(m)
}

// communityTerm is community c's summand in PartitionDensity.
func communityTerm(links, nodes int32) float64 {
	if nodes <= 2 {
		return 0
	}
	mc, nc := float64(links), float64(nodes)
	return mc * (mc - nc + 1) / ((nc - 2) * (nc - 1))
}

// BestCut returns the threshold whose flat clustering maximizes partition
// density, along with that density and clustering. The candidates are every
// distinct merge similarity and 2, the all-singletons cut; on ties the
// highest threshold wins. One pass over the merges, highest similarity
// first, keeps the density sum of the current cut up to date in a
// union-find whose roots hold their community's link count and vertex set.
func BestCut(g *graph.Graph, d *Dendrogram) (theta float64, density float64, labels []int32) {
	// No threshold cut applies a merge whose similarity is NaN.
	merges := slices.DeleteFunc(slices.Clone(d.merges), func(m core.Merge) bool { return math.IsNaN(m.Sim) })
	slices.SortStableFunc(merges, func(a, b core.Merge) int { return cmp.Compare(b.Sim, a.Sim) })
	uf := unionfind.NewMin(d.n)
	links := slices.Repeat([]int32{1}, d.n)
	verts := make([]map[int32]struct{}, d.n) // nil while the root is a single edge
	nodes := func(r int32) map[int32]struct{} {
		if verts[r] == nil {
			e := g.Edge(int(r))
			verts[r] = map[int32]struct{}{e.U: {}, e.V: {}}
		}
		return verts[r]
	}
	term := func(r int32) float64 { return communityTerm(links[r], int32(len(nodes(r)))) }

	// The running sum settles clear wins; it may round differently from
	// PartitionDensity, so near-ties are scored by PartitionDensity, as a
	// from-scratch scan would. Until a nonzero term changes (dirty), a
	// candidate's density equals the last scored or chosen one's bit for bit.
	theta = 2
	var sum, best, peak float64
	dirty := false
	for i := 0; i < len(merges); {
		sim := merges[i].Sim
		for ; i < len(merges) && merges[i].Sim == sim; i++ {
			ra, rb := uf.Find(merges[i].A), uf.Find(merges[i].B)
			if ra == rb {
				continue
			}
			ta, tb := term(ra), term(rb)
			big, small := nodes(ra), nodes(rb)
			if len(big) < len(small) {
				big, small = small, big
			}
			maps.Copy(big, small)
			uf.Union(ra, rb)
			r := min(ra, rb)
			links[r] = links[ra] + links[rb]
			verts[ra], verts[rb], verts[r] = nil, nil, big
			tr := term(r)
			sum += tr - (ta + tb)
			peak = max(peak, math.Abs(sum))
			dirty = dirty || ta != 0 || tb != 0 || tr != 0
		}
		tol := 1e-8 * peak // far above the rounding error of either sum
		switch {
		case !dirty || sum < best-tol:
		case sum > best+tol:
			best, theta, dirty = sum, sim, false
		default:
			dirty = false
			if PartitionDensity(g, uf.Labels()) > PartitionDensity(g, d.CutSim(theta)) {
				best, theta = sum, sim
			}
		}
	}
	labels = d.CutSim(theta)
	return theta, PartitionDensity(g, labels), labels // free of the running sum's rounding
}
