package ds

import (
	"slices"
	"sort"
)

// SortedInt32s provides merge-style set operations over sorted []int32
// slices, the representation used for interned keyword sets throughout the
// engine. All inputs must be strictly increasing; outputs are too.

// SortInt32s sorts s in place and removes duplicates, returning the
// (possibly shorter) slice.
func SortInt32s(s []int32) []int32 {
	if len(s) < 2 {
		return s
	}
	slices.Sort(s)
	out := s[:1]
	for _, v := range s[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// IntersectSorted returns a ∩ b as a new slice.
func IntersectSorted(a, b []int32) []int32 {
	out := make([]int32, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// IntersectSortedInto writes a ∩ b into dst (which is reset first) and
// returns it, avoiding allocation when dst has capacity. dst may share its
// backing array with a (e.g. dst = a[:0]): the write index never passes the
// read index, so repeated in-place intersection is safe.
func IntersectSortedInto(dst, a, b []int32) []int32 {
	dst = dst[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// IntersectionSize returns |a ∩ b| without allocating.
func IntersectionSize(a, b []int32) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// UnionSize returns |a ∪ b| without allocating.
func UnionSize(a, b []int32) int {
	return len(a) + len(b) - IntersectionSize(a, b)
}

// ContainsAllSorted reports whether sub ⊆ super.
func ContainsAllSorted(super, sub []int32) bool {
	i, j := 0, 0
	for i < len(super) && j < len(sub) {
		switch {
		case super[i] < sub[j]:
			i++
		case super[i] > sub[j]:
			return false
		default:
			i++
			j++
		}
	}
	return j == len(sub)
}

// ContainsSorted reports whether x ∈ s using binary search.
func ContainsSorted(s []int32, x int32) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= x })
	return i < len(s) && s[i] == x
}

// IndexSorted returns the position of x in the sorted slice s via binary
// search; ok is false when x is absent.
func IndexSorted(s []int32, x int32) (int, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= x })
	if i < len(s) && s[i] == x {
		return i, true
	}
	return 0, false
}

// JaccardSorted returns |a∩b| / |a∪b|, and 0 when both are empty.
func JaccardSorted(a, b []int32) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	inter := IntersectionSize(a, b)
	return float64(inter) / float64(len(a)+len(b)-inter)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
