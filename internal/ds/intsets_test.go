package ds

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestSortInt32s(t *testing.T) {
	got := SortInt32s([]int32{5, 1, 3, 1, 5, 2})
	want := []int32{1, 2, 3, 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if got := SortInt32s(nil); len(got) != 0 {
		t.Fatalf("nil input gave %v", got)
	}
	if got := SortInt32s([]int32{7}); !reflect.DeepEqual(got, []int32{7}) {
		t.Fatalf("single elem gave %v", got)
	}
}

func TestSetOpsBasic(t *testing.T) {
	a := []int32{1, 3, 5, 7}
	b := []int32{3, 4, 5, 8}
	if got := IntersectSorted(a, b); !reflect.DeepEqual(got, []int32{3, 5}) {
		t.Fatalf("Intersect = %v", got)
	}
	if got := UnionSize(a, b); got != 6 {
		t.Fatalf("UnionSize = %d", got)
	}
	if got := IntersectionSize(a, b); got != 2 {
		t.Fatalf("IntersectionSize = %d", got)
	}
	if got := UnionSize(a, b); got != 6 {
		t.Fatalf("UnionSize = %d", got)
	}
	if !ContainsAllSorted(a, []int32{1, 7}) {
		t.Fatal("ContainsAllSorted(a, {1,7}) = false")
	}
	if ContainsAllSorted(a, []int32{1, 4}) {
		t.Fatal("ContainsAllSorted(a, {1,4}) = true")
	}
	if !ContainsSorted(a, 5) || ContainsSorted(a, 6) {
		t.Fatal("ContainsSorted broken")
	}
	if got := JaccardSorted(a, b); got != 2.0/6.0 {
		t.Fatalf("Jaccard = %f", got)
	}
	if got := JaccardSorted(nil, nil); got != 0 {
		t.Fatalf("Jaccard(∅,∅) = %f", got)
	}
}

func TestIntersectSortedInto(t *testing.T) {
	buf := make([]int32, 0, 8)
	got := IntersectSortedInto(buf, []int32{1, 2, 3}, []int32{2, 3, 4})
	if !reflect.DeepEqual(got, []int32{2, 3}) {
		t.Fatalf("got %v", got)
	}
	// Reuse must reset.
	got = IntersectSortedInto(got, []int32{9}, []int32{9})
	if !reflect.DeepEqual(got, []int32{9}) {
		t.Fatalf("reuse got %v", got)
	}
}

// TestSetOpsMatchMaps cross-checks merge-based set algebra against maps.
func TestSetOpsMatchMaps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() ([]int32, map[int32]bool) {
			n := rng.Intn(40)
			m := map[int32]bool{}
			for i := 0; i < n; i++ {
				m[int32(rng.Intn(60))] = true
			}
			s := make([]int32, 0, len(m))
			for v := range m {
				s = append(s, v)
			}
			return SortInt32s(s), m
		}
		a, ma := mk()
		b, mb := mk()
		inter := IntersectSorted(a, b)
		for _, v := range inter {
			if !ma[v] || !mb[v] {
				return false
			}
		}
		cnt := 0
		for v := range ma {
			if mb[v] {
				cnt++
			}
		}
		if cnt != len(inter) || cnt != IntersectionSize(a, b) {
			return false
		}
		if UnionSize(a, b) != len(ma)+len(mb)-cnt {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
