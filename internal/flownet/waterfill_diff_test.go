package flownet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/nodeaware/stencil/internal/sim"
)

// bitsProbe records, after every rebalance, the float64 bits of every
// active flow's rate and scheduled completion time and of every sampled
// link utilization (which folds in the link's rate sum, and so the order in
// which rates were applied).
type bitsProbe struct {
	n   *Network
	ids map[*Flow]int
	log []uint64
}

func (p *bitsProbe) LinkSample(t sim.Time, link string, util float64, flows int) {
	p.log = append(p.log, math.Float64bits(util), uint64(flows))
}

func (p *bitsProbe) Rebalanced(t sim.Time, links, flows, active int) {
	p.log = append(p.log, math.Float64bits(t), uint64(links), uint64(flows), uint64(active))
	for f := p.n.head; f != nil; f = f.next {
		when := math.NaN()
		if f.completion.Scheduled() {
			when = f.completion.When()
		}
		p.log = append(p.log, uint64(p.ids[f]), math.Float64bits(f.rate), math.Float64bits(when))
	}
}

// fillScenario is a randomized flow workload over links whose equal shares
// tie exactly or differ by 1e-13 to 1e-11 relative, straddling the
// waterfill's 1e-12 tie tolerance.
type fillScenario struct {
	maxHops int
	caps    []float64
	flows   []scenarioFlow
	muts    []scenarioMut
	aborts  []float64
}

type scenarioFlow struct {
	start sim.Time
	bytes float64
	path  []int
}

type scenarioMut struct {
	when   sim.Time
	link   int
	kind   int // 0 degrade, 1 fail, 2 restore
	factor float64
}

func newFillScenario(rng *rand.Rand) fillScenario {
	sc := fillScenario{maxHops: rng.Intn(3)}
	base := 60 + rng.Float64()*940
	nLinks := rng.Intn(10) + 2
	for i := 0; i < nLinks; i++ {
		c := base * float64(rng.Intn(4)+1)
		switch rng.Intn(3) {
		case 0: // exact multiple of base: exact ties
		case 1:
			c *= 1 + math.Pow(10, -13+2*rng.Float64())
		default:
			c *= 1 - math.Pow(10, -13+2*rng.Float64())
		}
		sc.caps = append(sc.caps, c)
	}
	// Equal sizes make same-instant completions (and their batched
	// rebalances) common; scattered sizes interleave departures.
	sizes := []float64{base * 10, base * 25, 0}
	for i := rng.Intn(24) + 3; i > 0; i-- {
		var f scenarioFlow
		if rng.Intn(2) == 0 {
			f.start = float64(rng.Intn(8))
		}
		f.bytes = sizes[rng.Intn(len(sizes))]
		if f.bytes == 0 {
			f.bytes = math.Pow(10, 2+rng.Float64()*3)
		}
		hops := rng.Intn(4) + 1
		for h := 0; h < hops; h++ {
			l := rng.Intn(nLinks)
			dup := false
			for _, p := range f.path {
				dup = dup || p == l
			}
			if !dup {
				f.path = append(f.path, l)
			}
		}
		sc.flows = append(sc.flows, f)
	}
	for i := rng.Intn(5); i > 0; i-- {
		sc.muts = append(sc.muts, scenarioMut{
			when:   float64(rng.Intn(12)) + rng.Float64()*float64(rng.Intn(2)),
			link:   rng.Intn(nLinks),
			kind:   rng.Intn(3),
			factor: 0.05 + rng.Float64()*0.9,
		})
	}
	for i := rng.Intn(4); i > 0; i-- {
		sc.aborts = append(sc.aborts, float64(rng.Intn(12))+rng.Float64())
	}
	return sc
}

// run drives the scenario on a fresh network built by mk and returns the
// probe log followed by every flow's completion-time bits.
func (sc fillScenario) run(mk func(*sim.Engine) *Network) []uint64 {
	e := sim.NewEngine()
	n := mk(e)
	n.MaxHops = sc.maxHops
	p := &bitsProbe{n: n, ids: map[*Flow]int{}}
	n.Probe = p
	links := make([]*Link, len(sc.caps))
	for i, c := range sc.caps {
		links[i] = NewLink(fmt.Sprintf("l%d", i), c)
	}
	started := make([]*Flow, len(sc.flows))
	for i, sf := range sc.flows {
		path := make([]*Link, len(sf.path))
		for j, l := range sf.path {
			path[j] = links[l]
		}
		e.At(sf.start, func() {
			started[i] = n.StartFlow(fmt.Sprintf("f%d", i), path, sf.bytes)
			p.ids[started[i]] = i
		})
	}
	for _, m := range sc.muts {
		l := links[m.link]
		e.At(m.when, func() {
			switch m.kind {
			case 0:
				n.DegradeLink(l, m.factor)
			case 1:
				n.FailLink(l)
			default:
				n.RestoreLink(l)
			}
		})
	}
	for k, when := range sc.aborts {
		e.At(when, func() {
			// Abort the k-th started flow in start order, whatever its
			// state: pending, in flight, or already done.
			seen := 0
			for _, f := range started {
				if f != nil {
					if seen == k {
						n.Abort(f)
						return
					}
					seen++
				}
			}
		})
	}
	end := e.Run()
	out := append(p.log, math.Float64bits(end))
	for _, f := range started {
		at := math.NaN()
		if f.Done().Fired() {
			at = f.Done().FiredAt()
		}
		out = append(out, math.Float64bits(at))
	}
	return out
}

func firstDiff(a, b []uint64) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return len(a)
	}
	return -1
}

// The production waterfill must assign the reference round-scan fill's
// rates bit for bit, in the same order: every rate, every completion event
// time, every link utilization after every rebalance, and every completion
// instant must have identical float64 bits, under ties and near-ties around
// the 1e-12 tolerance, horizons of 0, 1 and 2 hops, capacity mutations and
// aborts.
func TestWaterfillMatchesReferenceBits(t *testing.T) {
	prop := func(seed int64) bool {
		sc := newFillScenario(rand.New(rand.NewSource(seed)))
		got := sc.run(New)
		want := sc.run(newRefNetwork)
		if i := firstDiff(got, want); i >= 0 {
			t.Logf("seed %d (MaxHops %d): logs diverge at word %d of %d/%d", seed, sc.maxHops, i, len(got), len(want))
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// flushBoth starts the same flows on a production and a reference network
// in one instant, materializes both allocations, requires identical rate
// and completion-time bits, and returns the production network's flows.
func flushBoth(t *testing.T, caps []float64, paths [][]int) []*Flow {
	t.Helper()
	var got, want []*Flow
	for k := 0; k < 2; k++ {
		e := sim.NewEngine()
		n := New(e)
		if k == 1 {
			n = newRefNetwork(e)
		}
		links := make([]*Link, len(caps))
		for i, c := range caps {
			links[i] = NewLink(fmt.Sprintf("l%d", i), c)
		}
		var flows []*Flow
		for i, p := range paths {
			path := make([]*Link, len(p))
			for j, l := range p {
				path[j] = links[l]
			}
			flows = append(flows, n.StartFlow(fmt.Sprintf("f%d", i), path, 1e12))
		}
		if k == 0 {
			n.flushPending()
			got = flows
		} else {
			n.refFlushPending()
			want = flows
		}
	}
	for i := range got {
		g, w := got[i], want[i]
		if math.Float64bits(g.rate) != math.Float64bits(w.rate) ||
			math.Float64bits(g.completion.When()) != math.Float64bits(w.completion.When()) {
			t.Fatalf("flow %d: rate %v ends %v, reference %v ends %v",
				i, g.rate, g.completion.When(), w.rate, w.completion.When())
		}
	}
	return got
}

// A link that is a bottleneck candidate at the round's start (its share is
// within the 1e-12 tolerance of the minimum) but whose share rises past the
// tolerance when an earlier link freezes a flow they share: the visit-time
// re-check must skip it, and it gets its own, slightly larger, share in the
// next round.
func TestWaterfillCandidateFailsRecheck(t *testing.T) {
	// l0 = 100 over f0, f1: share 50. l1 = 100(1+0.7e-12) over f0, f2:
	// share 50(1+0.7e-12), inside the tolerance. Freezing f0 at 50 leaves
	// l1 at 50(1+1.4e-12), outside it.
	for _, order := range [][][]int{
		{{0, 1}, {0}, {1}}, // l0 discovered first: l1 fails its re-check
		{{1, 0}, {1}, {0}}, // l1 first: both freeze in one round at 50
	} {
		got := flushBoth(t, []float64{100, 100 * (1 + 0.7e-12)}, order)
		if order[0][0] == 0 && got[2].rate == 50 {
			t.Errorf("f2 froze at the first round's share; the re-check did not run")
		}
		if order[0][0] == 1 && got[1].rate != 50 {
			t.Errorf("l1-first: f1 rate %v, want 50", got[1].rate)
		}
	}
}

// A link whose share starts above the tolerance but drops under it when an
// earlier link freezes a shared flow must join the round if it comes later
// in discovery order, and wait for the next round if it came earlier. Only
// rounding can lower a share this way, so the link carries 20000 flows:
// subtracting the bottleneck share from its large residual rounds the
// quotient down by more than freezing one flow raises it. A joining link
// takes its place in discovery order ahead of later candidates, so it can
// push one of them out of the tolerance before that candidate is visited.
func TestWaterfillLateLinkJoinsRound(t *testing.T) {
	s, r := 539352695.4405807, 10787053908822.404 // found by search
	const u = 20000
	thr := s * (1 + 1e-12)
	if !(r/u > thr && (r-s)/(u-1) <= thr) {
		t.Fatal("constants no longer straddle the tolerance")
	}
	for _, first := range []int{0, 1} {
		// l0 (capacity s) carries f0 only; l1 (capacity r) carries f0, g
		// and u-2 more flows; l2 carries g and h at a share just inside
		// the tolerance, which freezing g at s pushes outside it.
		paths := [][]int{{0, 1}}
		if first == 1 {
			paths = [][]int{{1, 0}}
		}
		for i := 2; i < u; i++ {
			paths = append(paths, []int{1})
		}
		paths = append(paths, []int{1, 2}, []int{2})
		got := flushBoth(t, []float64{s, r, 2 * s * (1 + 0.7e-12)}, paths)
		joined := got[1].rate == s
		if joined != (first == 0) {
			t.Errorf("l%d discovered first: l1's flows at %v, joined the round = %v", first, got[1].rate, joined)
		}
		// l1 joins ahead of l2 and freezes g first, so l2 fails its
		// re-check; when l1 waits, l2 freezes g and h in the first round.
		h := got[len(got)-1]
		if (h.rate == s) != (first == 1) {
			t.Errorf("l%d discovered first: h at %v", first, h.rate)
		}
	}
}
