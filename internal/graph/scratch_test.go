package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestMarksAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var m Marks
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(5000)
		m.Reset(n)
		// Dense trials read the stamps in one sweep, sparse ones sort.
		size := 1 + rng.Intn(n)
		if trial%2 == 0 {
			size = 1 + rng.Intn(1+n/100)
		}
		var members []int32
		for _, v := range rng.Perm(n)[:size] {
			m.Add(int32(v))
			members = append(members, int32(v))
		}
		got := m.Ascending(members)
		want := slices.Clone(members)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d, %d members): Ascending = %v, want %v", trial, n, size, got, want)
		}
		if &got[0] == &members[0] {
			t.Fatal("Ascending returned its input")
		}
	}
	m.Reset(4)
	if got := m.Ascending(nil); len(got) != 0 {
		t.Fatalf("Ascending(nil) = %v", got)
	}
}

// TestMarksEpochWrap: when the epoch counter is exhausted the stamps are
// cleared, so members of sets long gone cannot reappear.
func TestMarksEpochWrap(t *testing.T) {
	var m Marks
	m.Reset(8)
	m.Add(3)
	m.Remove(3)
	m.Add(5)
	if m.Has(3) || !m.Has(5) {
		t.Fatal("Add/Remove broken")
	}
	m.epoch = math.MaxInt32 - 1
	m.Reset(8)
	m.Add(1) // stamped MaxInt32
	m.Reset(8)
	for i := int32(0); i < 8; i++ {
		if m.Has(i) {
			t.Fatalf("%d survived the wrap", i)
		}
	}
	m.Add(2)
	m.Reset(16) // growing keeps the set empty too
	if m.Has(2) || m.Has(15) {
		t.Fatal("members after growth")
	}
}
