package flownet

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/nodeaware/stencil/internal/sim"
)

// checkAgainstOracle compares every active flow's incrementally maintained
// rate against the from-scratch oracle allocation. Tolerance is relative
// 1e-9: the two paths perform the same arithmetic in different orders.
func checkAgainstOracle(t *testing.T, n *Network, when sim.Time) bool {
	t.Helper()
	oracle := n.OracleRates()
	ok := true
	for _, f := range n.ActiveFlowList() {
		got, want := f.Rate(), oracle[f]
		if math.Abs(got-want) > 1e-9*math.Max(1, math.Max(got, want)) {
			t.Errorf("t=%g flow %s: incremental rate %g, oracle %g", when, f.name(), got, want)
			ok = false
		}
	}
	return ok
}

// Differential property: under randomized flow arrivals, departures (natural
// completions), aborts, and capacity mutations (degrade/fail/restore), the
// incremental waterfill — batching, rate sums, event reuse and all — agrees
// with the full-recompute oracle at every probe instant. MaxHops stays 0:
// the bounded horizon intentionally approximates, so exactness is only
// promised for the unbounded configuration.
func TestIncrementalMatchesOracleProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := sim.NewEngine()
		n := New(e)

		nLinks := rng.Intn(6) + 2
		links := make([]*Link, nLinks)
		for i := range links {
			links[i] = NewLink("l", 10+rng.Float64()*990)
		}
		randPath := func() []*Link {
			var path []*Link
			for _, l := range links {
				if rng.Intn(3) == 0 {
					path = append(path, l)
				}
			}
			if len(path) == 0 {
				path = append(path, links[rng.Intn(nLinks)])
			}
			return path
		}

		var live []*Flow // flows started so far (some finished/aborted by now)
		ok := true

		// Arrivals: a burst at t=0 plus stragglers, sizes spanning three
		// orders of magnitude so departures interleave with later events.
		nFlows := rng.Intn(10) + 3
		for i := 0; i < nFlows; i++ {
			start := sim.Time(0)
			if rng.Intn(2) == 0 {
				start = rng.Float64() * 10
			}
			bytes := math.Pow(10, 1+rng.Float64()*3)
			path := randPath()
			e.At(start, func() {
				live = append(live, n.StartFlow("f", path, bytes))
			})
		}

		// Capacity mutations: degrade, fail, restore on random links.
		for i := rng.Intn(5); i > 0; i-- {
			l := links[rng.Intn(nLinks)]
			when := rng.Float64() * 12
			switch rng.Intn(3) {
			case 0:
				factor := 0.05 + rng.Float64()*0.9
				e.At(when, func() { n.DegradeLink(l, factor) })
			case 1:
				e.At(when, func() { n.FailLink(l) })
			default:
				e.At(when, func() { n.RestoreLink(l) })
			}
		}

		// Aborts of arbitrary flows (done, pending, or in flight).
		for i := rng.Intn(4); i > 0; i-- {
			when := rng.Float64() * 12
			e.At(when, func() {
				if len(live) > 0 {
					n.Abort(live[rng.Intn(len(live))])
				}
			})
		}

		// Probes: compare incremental rates against the oracle at instants
		// scattered through the run (after the same-instant mutations above).
		for i := 0; i < 6; i++ {
			when := sim.Time(rng.Float64() * 14)
			e.At(when, func() {
				if !checkAgainstOracle(t, n, when) {
					ok = false
				}
			})
		}

		e.Run()
		if n.ActiveFlows() != 0 {
			t.Errorf("seed %d: %d flows still active after run", seed, n.ActiveFlows())
			ok = false
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// The oracle itself must agree with the closed-form answers of the classic
// scenarios (guards against the oracle and the incremental path sharing a
// common bug).
func TestOracleClosedForm(t *testing.T) {
	e := sim.NewEngine()
	n := New(e)
	l1 := NewLink("l1", 10)
	l2 := NewLink("l2", 100)
	a := n.StartFlow("a", []*Link{l1, l2}, 1e9)
	b := n.StartFlow("b", []*Link{l2}, 1e9)
	r := n.OracleRates()
	if !almostEq(r[a], 10) || !almostEq(r[b], 90) {
		t.Errorf("oracle rates a=%g b=%g, want 10/90", r[a], r[b])
	}
}
