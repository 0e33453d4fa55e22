package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"

	"linkclust"
	"linkclust/internal/bench"
	"linkclust/internal/core"
)

// subSeed derives the seed of one input stream (the edge-id permutation,
// the job sequence, ...) from the run seed, so the streams are independent
// and a run seed fixes all of them.
func subSeed(seed, stream uint64) uint64 {
	z := seed + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// wordGraphs builds the word-association graphs of an lcbench size preset
// at the given α labels, as lcbench does: the preset's corpus, so every
// seed clusters the same word graphs, with edge ids assigned by a
// permutation drawn from the run seed. Edge ids order the sweep's merges,
// so each seed is a different input of the same size and density; that
// keeps the run-to-run spread down to the program's own.
func wordGraphs(seed uint64, size bench.Size, alphas []float64) ([]*linkclust.Graph, error) {
	cfg, err := bench.DefaultConfig(size)
	if err != nil {
		return nil, err
	}
	c := linkclust.SynthesizeCorpus(cfg.Corpus)
	out := make([]*linkclust.Graph, len(alphas))
	for i, a := range alphas {
		g, err := linkclust.BuildWordGraph(c, math.Min(a*cfg.AlphaScale, 1),
			linkclust.AssocOptions{EdgePermSeed: subSeed(seed, 2)})
		if err != nil {
			return nil, fmt.Errorf("word graph at α=%g: %w", a, err)
		}
		out[i] = g
	}
	return out, nil
}

// graphText is g in the library's text format, the form a daemon client
// submits.
func graphText(g *linkclust.Graph) ([]byte, error) {
	var b bytes.Buffer
	if err := linkclust.WriteGraph(&b, g); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// mergesSHA is the SHA-256 of a merge stream in the LCMG encoding, the same
// digest linkclustd serves as merges_sha256. It also returns the encoded
// size.
func mergesSHA(numEdges int, merges []core.Merge) ([32]byte, int, error) {
	var b bytes.Buffer
	if err := core.WriteMerges(&b, numEdges, merges); err != nil {
		return [32]byte{}, 0, err
	}
	return sha256.Sum256(b.Bytes()), b.Len(), nil
}
