package graph

import "slices"

// Stats summarizes a graph for the Analysis panel and for dataset
// descriptions in experiment output.
type Stats struct {
	Vertices    int
	Edges       int
	MinDegree   int
	MaxDegree   int
	AvgDegree   float64
	Components  int
	Keywords    int     // distinct keywords in the vocabulary
	AvgKeywords float64 // average keyword-set size
}

// ComputeStats walks the graph once and returns its Stats.
func (g *Graph) ComputeStats() Stats {
	n := g.N()
	s := Stats{
		Vertices: n,
		Edges:    g.M(),
		Keywords: g.vocab.Len(),
	}
	if n == 0 {
		return s
	}
	s.MinDegree = g.Degree(0)
	totalKw := 0
	for v := int32(0); v < int32(n); v++ {
		d := g.Degree(v)
		if d < s.MinDegree {
			s.MinDegree = d
		}
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
		totalKw += len(g.Keywords(v))
	}
	s.AvgDegree = 2 * float64(g.M()) / float64(n)
	s.AvgKeywords = float64(totalKw) / float64(n)
	_, s.Components = g.ConnectedComponents()
	return s
}

// TopKeywords returns the most frequent keyword IDs among the given
// vertices, by descending frequency (ties broken by ID). This powers the
// community "Theme" display of Figure 1. Frequencies are counted in a dense
// per-keyword array from the graph's scratch pool; only the keywords that
// occur are ranked.
func (g *Graph) TopKeywords(vertices []int32, limit int) []int32 {
	s := g.AcquireScratch()
	defer s.Release()
	if len(s.kwCount) < g.vocab.Len() {
		s.kwCount = make([]int32, g.vocab.Len())
	}
	freq, seen := s.kwCount, s.kwTouched[:0]
	for _, v := range vertices {
		for _, w := range g.Keywords(v) {
			if freq[w] == 0 {
				seen = append(seen, w)
			}
			freq[w]++
		}
	}
	slices.SortFunc(seen, func(a, b int32) int {
		if freq[a] != freq[b] {
			return int(freq[b] - freq[a])
		}
		return int(a - b)
	})
	for _, w := range seen {
		freq[w] = 0
	}
	s.kwTouched = seen
	if limit > 0 && len(seen) > limit {
		seen = seen[:limit]
	}
	return slices.Clone(seen)
}
