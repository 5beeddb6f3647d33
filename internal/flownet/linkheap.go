package flownet

// linkHeap is a 4-ary min-heap of the links a water-fill can still
// constrain, ordered by key, a lower bound on each link's current share
// (residual/unassigned). Keys are lazy: freezing a flow at the bottleneck
// share s raises every higher share, since (R-s)/(U-1) >= R/U whenever
// R/U >= s, so a key stored earlier stays a lower bound and a touched link
// is never re-sifted for a rise (a leaf's key is simply raised). Only a
// share that actually drops below its key (by rounding, or the residual
// clamp) lowers the key in place. The order of
// equal keys never matters: the fill reads the minimum value and sorts each
// round's candidates by discovery order.
//
// Keys live in the heap array beside their links, so a sift compares a
// node's four children within one cache line instead of dereferencing four
// links.
type linkHeap []heapEntry

type heapEntry struct {
	key float64
	l   *Link
}

func (h linkHeap) init() {
	for i := (len(h) - 2) / 4; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (h linkHeap) siftUp(i int) {
	e := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		p := h[parent]
		if e.key >= p.key {
			break
		}
		h[i] = p
		p.l.hpos = i
		i = parent
	}
	h[i] = e
	e.l.hpos = i
}

func (h linkHeap) siftDown(i int) {
	n := len(h)
	e := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h[c].key < h[best].key {
				best = c
			}
		}
		b := h[best]
		if b.key >= e.key {
			break
		}
		h[i] = b
		b.l.hpos = i
		i = best
	}
	h[i] = e
	e.l.hpos = i
}

func (h *linkHeap) push(l *Link, key float64) {
	l.hpos = len(*h)
	*h = append(*h, heapEntry{key, l})
	h.siftUp(l.hpos)
}

// pop removes and returns the link with the smallest key.
func (h *linkHeap) pop() *Link {
	old := *h
	n := len(old)
	l := old[0].l
	last := old[n-1]
	old[n-1] = heapEntry{}
	*h = old[:n-1]
	l.hpos = -1
	if n > 1 {
		old[0] = last
		(*h).siftDown(0)
	}
	return l
}

// remove deletes the link at index i and returns it.
func (h *linkHeap) remove(i int) *Link {
	old := *h
	n := len(old)
	l := old[i].l
	last := old[n-1]
	old[n-1] = heapEntry{}
	*h = old[:n-1]
	l.hpos = -1
	if i < n-1 {
		old[i] = last
		last.l.hpos = i
		(*h).siftDown(i)
		(*h).siftUp(last.l.hpos)
	}
	return l
}
