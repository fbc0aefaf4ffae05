package ds

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPairHeapOrdering(t *testing.T) {
	h := NewPairHeap(8)
	h.Push(1, 3.0)
	h.Push(2, 1.0)
	h.Push(3, 2.0)
	if h.Len() != 3 {
		t.Fatalf("Len = %d", h.Len())
	}
	id, p := h.Pop()
	if id != 2 || p != 1.0 {
		t.Fatalf("Pop = (%d,%f), want (2,1)", id, p)
	}
	id, _ = h.Pop()
	if id != 3 {
		t.Fatalf("Pop = %d, want 3", id)
	}
	id, _ = h.Pop()
	if id != 1 {
		t.Fatalf("Pop = %d, want 1", id)
	}
	if h.Len() != 0 {
		t.Fatal("heap should be empty")
	}
}

func TestPairHeapDecreaseKey(t *testing.T) {
	h := NewPairHeap(8)
	h.Push(1, 10)
	h.Push(2, 20)
	h.Push(2, 1) // decrease
	id, p := h.Pop()
	if id != 2 || p != 1 {
		t.Fatalf("decrease-key broken: got (%d,%f)", id, p)
	}
	h.Push(1, 100) // increase existing
	id, p = h.Pop()
	if id != 1 || p != 100 {
		t.Fatalf("increase-key broken: got (%d,%f)", id, p)
	}
}

// TestPairHeapReset checks that Reset forgets queued ids, so a reused heap
// treats them as absent again.
func TestPairHeapReset(t *testing.T) {
	h := NewPairHeap(4)
	h.Push(1, 5)
	h.Push(3, 2)
	h.Reset(8)
	if h.Len() != 0 {
		t.Fatalf("Len after Reset = %d", h.Len())
	}
	h.Push(3, 9) // must insert, not update a stale position
	h.Push(7, 1)
	if id, p := h.Pop(); id != 7 || p != 1 {
		t.Fatalf("Pop = (%d,%f), want (7,1)", id, p)
	}
	if id, p := h.Pop(); id != 3 || p != 9 {
		t.Fatalf("Pop = (%d,%f), want (3,9)", id, p)
	}
}

// TestPairHeapSortsRandom drains random pushes and checks the output is
// sorted by priority.
func TestPairHeapSortsRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		h := NewPairHeap(n)
		want := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			p := rng.Float64()
			h.Push(int32(i), p)
			want = append(want, p)
		}
		sort.Float64s(want)
		for i := 0; i < n; i++ {
			_, p := h.Pop()
			if p != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
