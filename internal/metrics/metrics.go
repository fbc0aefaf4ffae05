// Package metrics implements the Comparison Analysis module of C-Explorer
// (§4 "Comparison analysis"): the CPJ and CMF community-quality metrics of
// the ACQ paper, community statistics (the Figure 6(a) table), and the
// partition-overlap measures (Jaccard, F1, NMI) used to compare CR
// algorithms' outputs.
package metrics

import (
	"context"
	"math"
	"slices"

	"cexplorer/internal/ds"
	"cexplorer/internal/graph"
)

// CPJ — community pair-wise Jaccard — is "the average similarity over all
// pairs of vertices" (§4): the mean Jaccard similarity of the keyword sets
// of every vertex pair in the community. Higher means the members' content
// is more mutually similar. Returns 0 for communities of fewer than 2
// vertices. The pair loop is quadratic, so it checks ctx once per row and
// returns ctx.Err() once it is done.
func CPJ(ctx context.Context, g *graph.Graph, community []int32) (float64, error) {
	n := len(community)
	if n < 2 {
		return 0, nil
	}
	total := 0.0
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		wi := g.Keywords(community[i])
		for j := i + 1; j < n; j++ {
			total += ds.JaccardSorted(wi, g.Keywords(community[j]))
		}
	}
	return total / float64(n*(n-1)/2), nil
}

// CMF — community member frequency — is "the average frequency of keywords
// in W(q) for all the vertices in the community" (§4): for every member v,
// the fraction of q's keywords that v also carries, averaged over members.
// q itself is excluded from the average (it trivially scores 1). Returns 0
// when q has no keywords or the community has no other member.
func CMF(g *graph.Graph, community []int32, q int32) float64 {
	wq := g.Keywords(q)
	if len(wq) == 0 {
		return 0
	}
	total, cnt := 0.0, 0
	for _, v := range community {
		if v == q {
			continue
		}
		total += float64(ds.IntersectionSize(g.Keywords(v), wq)) / float64(len(wq))
		cnt++
	}
	if cnt == 0 {
		return 0
	}
	return total / float64(cnt)
}

// CommunityStats is one row of the Figure 6(a) statistics table.
type CommunityStats struct {
	Vertices  int
	Edges     int
	AvgDegree float64
	MinDegree int
	Diameter  int // 0 unless WithDiameter was used
}

// Stats computes the statistics row for one community.
func Stats(g *graph.Graph, community []int32) CommunityStats {
	sub := g.Induce(community)
	return CommunityStats{
		Vertices:  sub.N(),
		Edges:     sub.M(),
		AvgDegree: sub.AvgDegree(),
		MinDegree: sub.MinDegree(),
	}
}

// StatsWithDiameter additionally computes the exact diameter (communities
// are small; BFS from every member).
func StatsWithDiameter(g *graph.Graph, community []int32) CommunityStats {
	s := Stats(g, community)
	if s.Vertices > 0 {
		s.Diameter = g.Diameter(community)
	}
	return s
}

// AggregateStats averages the per-community statistics of one method's
// output, the way the Figure 6(a) table reports "the numbers of returned
// communities, as well as their average numbers of vertices, edges, and
// degrees".
type AggregateStats struct {
	Communities int
	AvgVertices float64
	AvgEdges    float64
	AvgDegree   float64
}

// Aggregate combines per-community stats rows.
func Aggregate(rows []CommunityStats) AggregateStats {
	agg := AggregateStats{Communities: len(rows)}
	if len(rows) == 0 {
		return agg
	}
	for _, r := range rows {
		agg.AvgVertices += float64(r.Vertices)
		agg.AvgEdges += float64(r.Edges)
		agg.AvgDegree += r.AvgDegree
	}
	n := float64(len(rows))
	agg.AvgVertices /= n
	agg.AvgEdges /= n
	agg.AvgDegree /= n
	return agg
}

// SetJaccard returns |A∩B|/|A∪B| over vertex sets (the "similarity
// analysis" of two methods' communities).
func SetJaccard(a, b []int32) float64 {
	as := append([]int32(nil), a...)
	bs := append([]int32(nil), b...)
	slices.Sort(as)
	slices.Sort(bs)
	return ds.JaccardSorted(as, bs)
}

// F1 returns the harmonic mean of precision and recall of predicted vertex
// set `pred` against ground truth `truth`.
func F1(pred, truth []int32) float64 {
	if len(pred) == 0 || len(truth) == 0 {
		return 0
	}
	ps := append([]int32(nil), pred...)
	ts := append([]int32(nil), truth...)
	slices.Sort(ps)
	slices.Sort(ts)
	inter := float64(ds.IntersectionSize(ps, ts))
	if inter == 0 {
		return 0
	}
	p := inter / float64(len(ps))
	r := inter / float64(len(ts))
	return 2 * p * r / (p + r)
}

// NMI computes normalized mutual information between two partitions given
// as label arrays over the same vertex set. 1 = identical partitions,
// 0 = independent. Uses the arithmetic-mean normalization.
func NMI(a, b []int32) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	n := float64(len(a))
	ca := map[int32]float64{}
	cb := map[int32]float64{}
	joint := map[int64]float64{}
	for i := range a {
		ca[a[i]]++
		cb[b[i]]++
		joint[int64(a[i])<<32|int64(uint32(b[i]))]++
	}
	var ia, ib, mi float64
	for _, c := range ca {
		p := c / n
		ia -= p * math.Log(p)
	}
	for _, c := range cb {
		p := c / n
		ib -= p * math.Log(p)
	}
	for key, c := range joint {
		pa := ca[int32(key>>32)] / n
		pb := cb[int32(uint32(key))] / n
		p := c / n
		mi += p * math.Log(p/(pa*pb))
	}
	denom := (ia + ib) / 2
	if denom == 0 {
		return 1 // both partitions trivial and identical
	}
	return mi / denom
}

// Theme returns the community's theme keywords (Figure 1's "Theme:" line):
// the most frequent keywords among members, as strings.
func Theme(g *graph.Graph, community []int32, limit int) []string {
	return g.Vocab().Words(g.TopKeywords(community, limit))
}
