package ds

// PairHeap is a binary min-heap of (id, priority) pairs over a dense id
// space with a decrease/increase-key operation, used by the Local expansion
// strategy. Priorities are float64; heap order is unspecified for equal
// priorities. Positions are indexed by id in a flat array, so the heap
// hashes nothing; the zero value is ready for Reset.
type PairHeap struct {
	ids  []int32
	prio []float64
	pos  []int32 // id -> position in ids plus one; 0 when absent
}

// NewPairHeap returns an empty heap for ids in [0,n).
func NewPairHeap(n int) *PairHeap {
	h := &PairHeap{}
	h.Reset(n)
	return h
}

// Reset empties the heap, keeping its storage, and sizes it for ids in
// [0,n). It costs O(items still queued).
func (h *PairHeap) Reset(n int) {
	for _, id := range h.ids {
		h.pos[id] = 0
	}
	h.ids, h.prio = h.ids[:0], h.prio[:0]
	if len(h.pos) < n {
		h.pos = make([]int32, n)
	}
}

// Len returns the number of queued items.
func (h *PairHeap) Len() int { return len(h.ids) }

// Push inserts id with priority p, or updates its priority if already
// present (moving it up or down as needed).
func (h *PairHeap) Push(id int32, p float64) {
	if i := int(h.pos[id]) - 1; i >= 0 {
		old := h.prio[i]
		h.prio[i] = p
		if p < old {
			h.up(i)
		} else if p > old {
			h.down(i)
		}
		return
	}
	h.ids = append(h.ids, id)
	h.prio = append(h.prio, p)
	h.pos[id] = int32(len(h.ids))
	h.up(len(h.ids) - 1)
}

// Pop removes and returns the minimum-priority item. It panics on an empty
// heap; callers guard with Len.
func (h *PairHeap) Pop() (id int32, p float64) {
	id, p = h.ids[0], h.prio[0]
	last := len(h.ids) - 1
	h.swap(0, last)
	h.ids = h.ids[:last]
	h.prio = h.prio[:last]
	h.pos[id] = 0
	if last > 0 {
		h.down(0)
	}
	return id, p
}

func (h *PairHeap) swap(i, j int) {
	h.ids[i], h.ids[j] = h.ids[j], h.ids[i]
	h.prio[i], h.prio[j] = h.prio[j], h.prio[i]
	h.pos[h.ids[i]] = int32(i + 1)
	h.pos[h.ids[j]] = int32(j + 1)
}

func (h *PairHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.prio[parent] <= h.prio[i] {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *PairHeap) down(i int) {
	n := len(h.ids)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.prio[l] < h.prio[smallest] {
			smallest = l
		}
		if r < n && h.prio[r] < h.prio[smallest] {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}
