package flownet

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/nodeaware/stencil/internal/sim"
)

const eps = 1e-9

func almostEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestSingleFlowFullBandwidth(t *testing.T) {
	e := sim.NewEngine()
	n := New(e)
	l := NewLink("l", 100) // 100 B/s
	f := n.StartFlow("f", []*Link{l}, 250)
	e.Run()
	if !f.Done().Fired() {
		t.Fatal("flow never completed")
	}
	if got := f.Done().FiredAt(); !almostEq(got, 2.5) {
		t.Errorf("completion at %g, want 2.5", got)
	}
}

func TestZeroByteFlowImmediate(t *testing.T) {
	e := sim.NewEngine()
	n := New(e)
	l := NewLink("l", 100)
	f := n.StartFlow("f", []*Link{l}, 0)
	if !f.Done().Fired() {
		t.Fatal("zero-byte flow did not complete immediately")
	}
	if n.ActiveFlows() != 0 {
		t.Error("zero-byte flow left residue")
	}
}

func TestTwoFlowsShareLink(t *testing.T) {
	e := sim.NewEngine()
	n := New(e)
	l := NewLink("l", 100)
	a := n.StartFlow("a", []*Link{l}, 100)
	b := n.StartFlow("b", []*Link{l}, 100)
	e.Run()
	// Both get 50 B/s, both finish at t=2.
	if got := a.Done().FiredAt(); !almostEq(got, 2) {
		t.Errorf("a at %g, want 2", got)
	}
	if got := b.Done().FiredAt(); !almostEq(got, 2) {
		t.Errorf("b at %g, want 2", got)
	}
}

func TestLateArrivalRebalances(t *testing.T) {
	e := sim.NewEngine()
	n := New(e)
	l := NewLink("l", 100)
	a := n.StartFlow("a", []*Link{l}, 100)
	var b *Flow
	e.At(0.5, func() { b = n.StartFlow("b", []*Link{l}, 100) })
	e.Run()
	// a: 50 bytes alone in [0,0.5] at 100 B/s, then 50 B/s shared.
	// a finishes at 0.5 + 50/50 = 1.5. Then b has 100-50=50 left at 100 B/s,
	// finishing at 1.5+0.5=2.0.
	if got := a.Done().FiredAt(); !almostEq(got, 1.5) {
		t.Errorf("a at %g, want 1.5", got)
	}
	if got := b.Done().FiredAt(); !almostEq(got, 2.0) {
		t.Errorf("b at %g, want 2.0", got)
	}
}

// TestFlowsLateOnTheClock starts NVLink-rate flows at t = 1e5 s, where one
// ulp of the clock times the rate is about 0.7 bytes: a completion instant
// rounded to the clock leaves that much residue, which finish must accept.
// Staggered starts and sizes make every flow's rate change mid-flight.
func TestFlowsLateOnTheClock(t *testing.T) {
	const t0, bw = 1e5, 46e9
	e := sim.NewEngine()
	n := New(e)
	l := NewLink("nvlink", bw)
	var flows []*Flow
	for i := 0; i < 8; i++ {
		i := i
		e.At(t0+float64(i)*3.7e-6, func() {
			flows = append(flows, n.StartFlow("f", []*Link{l}, float64(1<<20+i*77777)))
		})
	}
	e.Run()
	if len(flows) != 8 || n.ActiveFlows() != 0 {
		t.Fatalf("%d flows started, %d still active", len(flows), n.ActiveFlows())
	}
	// The link stays saturated from the first start to the last finish.
	var total float64
	last := 0.0
	for _, f := range flows {
		if !f.Done().Fired() {
			t.Fatal("flow never completed")
		}
		total += f.total
		last = math.Max(last, f.Done().FiredAt())
	}
	if want := t0 + total/bw; math.Abs(last-want) > 1e-9 {
		t.Errorf("last completion at %.12f s, want %.12f s", last, want)
	}
}

func TestEarlyFinishSpeedsUpSurvivor(t *testing.T) {
	e := sim.NewEngine()
	n := New(e)
	l := NewLink("l", 100)
	small := n.StartFlow("small", []*Link{l}, 50)
	big := n.StartFlow("big", []*Link{l}, 150)
	e.Run()
	// Shared 50/50 until small finishes at t=1 (50 bytes at 50 B/s).
	// big then has 100 left at 100 B/s: finishes at t=2.
	if got := small.Done().FiredAt(); !almostEq(got, 1) {
		t.Errorf("small at %g, want 1", got)
	}
	if got := big.Done().FiredAt(); !almostEq(got, 2) {
		t.Errorf("big at %g, want 2", got)
	}
}

func TestMultiLinkPathBottleneck(t *testing.T) {
	e := sim.NewEngine()
	n := New(e)
	fast := NewLink("fast", 1000)
	slow := NewLink("slow", 10)
	f := n.StartFlow("f", []*Link{fast, slow}, 100)
	e.Run()
	if got := f.Done().FiredAt(); !almostEq(got, 10) {
		t.Errorf("completion at %g, want 10 (bottleneck 10 B/s)", got)
	}
}

func TestMaxMinUnbalancedPaths(t *testing.T) {
	// Classic max-min scenario: flow A crosses links L1(cap 10) and L2(cap
	// 100); flow B crosses only L2. A is limited to 10 by L1; B should pick
	// up the slack on L2: 90.
	e := sim.NewEngine()
	n := New(e)
	l1 := NewLink("l1", 10)
	l2 := NewLink("l2", 100)
	a := n.StartFlow("a", []*Link{l1, l2}, 1000)
	b := n.StartFlow("b", []*Link{l2}, 1000)
	if !almostEq(a.Rate(), 10) {
		t.Errorf("a rate = %g, want 10", a.Rate())
	}
	if !almostEq(b.Rate(), 90) {
		t.Errorf("b rate = %g, want 90", b.Rate())
	}
	e.Run()
}

func TestThreeFlowsTwoLinks(t *testing.T) {
	// L1 cap 30 carries f1,f2; L2 cap 30 carries f2,f3.
	// Fair share: f1=f2=f3? Water-filling: both links have 2 flows, share 15.
	// Freeze one link's flows at 15 each; the other link then has one
	// unassigned flow with 15 residual -> also 15. All equal 15.
	e := sim.NewEngine()
	n := New(e)
	l1 := NewLink("l1", 30)
	l2 := NewLink("l2", 30)
	f1 := n.StartFlow("f1", []*Link{l1}, 1e9)
	f2 := n.StartFlow("f2", []*Link{l1, l2}, 1e9)
	f3 := n.StartFlow("f3", []*Link{l2}, 1e9)
	for _, f := range []*Flow{f1, f2, f3} {
		if !almostEq(f.Rate(), 15) {
			t.Errorf("%v rate = %g, want 15", f, f.Rate())
		}
	}
	// Don't run to completion (1e9 bytes): just clear the queue by checking
	// the allocation was instantaneously correct, then abandon the engine.
}

func TestTransferBlocksProcess(t *testing.T) {
	e := sim.NewEngine()
	n := New(e)
	l := NewLink("l", 100)
	var done sim.Time
	e.Spawn("xfer", func(p *sim.Proc) {
		n.StartFlow("t", []*Link{l}, 500).Done().Wait(p)
		done = p.Now()
	})
	e.Run()
	if !almostEq(done, 5) {
		t.Errorf("process resumed at %g, want 5", done)
	}
}

func TestLinkFlowCount(t *testing.T) {
	e := sim.NewEngine()
	n := New(e)
	l := NewLink("l", 100)
	n.StartFlow("a", []*Link{l}, 100)
	n.StartFlow("b", []*Link{l}, 100)
	if l.NumFlows() != 2 {
		t.Errorf("NumFlows = %d, want 2", l.NumFlows())
	}
	e.Run()
	if l.NumFlows() != 0 {
		t.Errorf("NumFlows after completion = %d, want 0", l.NumFlows())
	}
}

func TestNegativeBytesPanics(t *testing.T) {
	e := sim.NewEngine()
	n := New(e)
	l := NewLink("l", 100)
	defer func() {
		if recover() == nil {
			t.Error("negative flow did not panic")
		}
	}()
	n.StartFlow("bad", []*Link{l}, -1)
}

func TestEmptyPathPanics(t *testing.T) {
	e := sim.NewEngine()
	n := New(e)
	defer func() {
		if recover() == nil {
			t.Error("empty path did not panic")
		}
	}()
	n.StartFlow("bad", nil, 10)
}

func TestZeroCapacityLinkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-capacity link did not panic")
		}
	}()
	NewLink("bad", 0)
}

// Property: rates never exceed any link capacity, and the allocation is
// work-conserving on the bottleneck of each flow (no flow can be increased
// without decreasing a flow with an equal-or-smaller rate).
func TestMaxMinInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := sim.NewEngine()
		n := New(e)
		nLinks := rng.Intn(5) + 1
		links := make([]*Link, nLinks)
		for i := range links {
			links[i] = NewLink("l", 10+rng.Float64()*90)
		}
		nFlows := rng.Intn(8) + 1
		flows := make([]*Flow, nFlows)
		for i := range flows {
			// Random nonempty subset path.
			var path []*Link
			for _, l := range links {
				if rng.Intn(2) == 0 {
					path = append(path, l)
				}
			}
			if len(path) == 0 {
				path = append(path, links[rng.Intn(nLinks)])
			}
			flows[i] = n.StartFlow("f", path, 1e12)
		}
		// Materialize the instant's batched allocation before peeking at
		// internal rate fields (Flow.Rate would do this implicitly).
		n.flushPending()
		// Invariant 1: per-link sum of rates <= capacity.
		for _, l := range links {
			var sum float64
			for _, f := range l.flows {
				sum += f.rate
			}
			if sum > l.Capacity*(1+1e-9) {
				return false
			}
		}
		// Invariant 2: every flow is bottlenecked — it crosses some link that
		// is saturated and on which it has the max rate.
		for _, fl := range flows {
			bottlenecked := false
			for _, l := range fl.path {
				var sum, maxRate float64
				for _, f2 := range l.flows {
					sum += f2.rate
					if f2.rate > maxRate {
						maxRate = f2.rate
					}
				}
				if sum >= l.Capacity*(1-1e-9) && fl.rate >= maxRate-eps {
					bottlenecked = true
					break
				}
			}
			if !bottlenecked {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: conservation — total bytes delivered equals total bytes sent, and
// completion times are consistent with the integral of the rate.
func TestByteConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := sim.NewEngine()
		n := New(e)
		l := NewLink("l", 100)
		nFlows := rng.Intn(6) + 1
		var totalBytes float64
		var lastDone sim.Time
		flows := make([]*Flow, nFlows)
		for i := range flows {
			bytes := rng.Float64()*1000 + 1
			totalBytes += bytes
			start := rng.Float64() * 5
			i := i
			e.At(start, func() {
				flows[i] = n.StartFlow("f", []*Link{l}, bytes)
			})
		}
		end := e.Run()
		for _, fl := range flows {
			if fl == nil || !fl.Done().Fired() {
				return false
			}
			if fl.Done().FiredAt() > lastDone {
				lastDone = fl.Done().FiredAt()
			}
		}
		// The link can move at most 100 B/s; the whole batch cannot finish
		// before totalBytes/100 and the run ends when the last flow does.
		return end == lastDone && lastDone >= totalBytes/100-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Once every flow has finished, the network keeps none of them reachable:
// its per-link flow lists and rebalance scratch keep their capacity but
// drop their flow pointers, aborted flows included.
func TestFinishedFlowsNotRetained(t *testing.T) {
	e := sim.NewEngine()
	n := New(e)
	a, b, c := NewLink("a", 100), NewLink("b", 50), NewLink("c", 80)
	for i := 0; i < 20; i++ {
		path := []*Link{a, b}
		if i%2 == 1 {
			path = []*Link{b, c}
		}
		e.At(float64(i%5)*0.1, func() {
			f := n.StartFlow("f", path, float64(100+i))
			if i%7 == 3 {
				n.Abort(f) // started and aborted in the same instant
			}
		})
	}
	e.Run()
	held := 0
	for _, fs := range [][]*Flow{n.compFlows, n.pendFlows, a.inner, b.inner, c.inner, a.flows, b.flows, c.flows} {
		for _, f := range fs[:cap(fs)] {
			if f != nil {
				held++
			}
		}
	}
	if held != 0 || n.head != nil {
		t.Errorf("%d finished flows still referenced (list head %v)", held, n.head)
	}
}
