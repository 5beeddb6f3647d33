package flownet

import (
	"math"

	"github.com/nodeaware/stencil/internal/sim"
)

// This file keeps the round-scan water-fill that rebalance replaced as a
// bit-exact reference, verbatim apart from its name and its scratch storage
// (a local slice and a map where it used Network and Link fields the
// production fill no longer has). Every round it scans all active links for
// the minimum share, then scans them again in discovery order to freeze
// every link at that share. The differential tests in
// waterfill_diff_test.go drive a network with each fill and require
// identical rate and event-time bits.

// newRefNetwork returns a network whose end-of-instant flush runs the
// reference fill. Its flows must not be read through Flow.Rate or
// Flow.Remaining, whose mid-instant flush would run the production fill.
func newRefNetwork(e *sim.Engine) *Network {
	n := &Network{eng: e}
	e.AddFlusher(n.refFlushPending)
	return n
}

// refFlushPending is flushPending with the reference fill.
func (n *Network) refFlushPending() {
	if len(n.pendSeeds) == 0 {
		return
	}
	for _, f := range n.pendFlows {
		f.pending = false
	}
	n.pendFlows = n.pendFlows[:0]
	seeds := n.pendSeeds
	n.refRebalance(seeds)
	n.pendSeeds = seeds[:0]
}

// refRebalance is rebalance with the round-scan fill.
func (n *Network) refRebalance(seed []*Link) {
	n.epoch++
	epoch := n.epoch

	// Component discovery (breadth-first over the link-flow bipartite
	// graph) into reusable scratch slices. Links first reached at the
	// horizon (depth == MaxHops) are constraint-only: their interior flows
	// participate in the waterfill but their other flows stay frozen.
	flows := n.compFlows[:0]
	links := n.compLinks[:0]
	depth := n.compDepth[:0]
	for _, l := range seed {
		if l.visit != epoch {
			l.visit = epoch
			l.interior = 0
			l.unassigned = 0
			links = append(links, l)
			depth = append(depth, 0)
		}
	}
	for cursor := 0; cursor < len(links); cursor++ {
		l := links[cursor]
		d := depth[cursor]
		if n.MaxHops > 0 && d >= n.MaxHops {
			continue // horizon link: flows not enumerated
		}
		for _, f := range l.flows {
			if f.visit == epoch {
				continue
			}
			f.visit = epoch
			flows = append(flows, f)
			for _, fl := range f.path {
				if fl.visit != epoch {
					fl.visit = epoch
					fl.interior = 0
					fl.unassigned = 0
					links = append(links, fl)
					depth = append(depth, d+1)
				}
			}
		}
	}
	n.compFlows, n.compLinks, n.compDepth = flows, links, depth
	if len(flows) == 0 {
		// All flows over the seed links finished or moved away: the links
		// are idle now, and the probe must see utilization drop to zero.
		n.probeSample(links, 0)
		return
	}

	// Accumulate each link's interior load (rates about to be replaced)
	// before settling so horizon links can subtract exactly the boundary
	// remainder: residual = Capacity - (rateSum - interior). The unassigned
	// count is the interior-flow count: for non-horizon links every flow is
	// interior (discovery enumerated them all), for horizon links the
	// boundary flows stay frozen and must not be touched.
	for _, f := range flows {
		for _, l := range f.path {
			l.interior += f.rate
			l.unassigned++
		}
	}

	// Each link's interior flows, in flow discovery order, so the
	// water-filling freeze pass never scans a horizon link's (possibly
	// thousands of) frozen boundary flows.
	segment := make(map[*Link][]*Flow, len(links))
	for _, f := range flows {
		for _, l := range f.path {
			segment[l] = append(segment[l], f)
		}
	}

	now := n.eng.Now()
	for _, f := range flows {
		f.settle(now)
	}

	// Water-filling: repeatedly freeze the most-constrained link's flows at
	// that link's equal share. Only links with interior flows can constrain
	// the allocation; act holds them and is compacted as links saturate.
	var act []*Link
	for i, l := range links {
		if n.MaxHops > 0 && depth[i] >= n.MaxHops {
			// Horizon link: boundary flows keep their frozen rates; the
			// interior flows compete for whatever they leave.
			l.residual = l.Capacity - (l.rateSum - l.interior)
			if l.residual < 0 {
				l.residual = 0
			}
		} else {
			l.residual = l.Capacity
		}
		if l.unassigned > 0 {
			act = append(act, l)
		}
	}
	remaining := len(flows)
	for remaining > 0 {
		share := math.Inf(1)
		for _, l := range act {
			if l.unassigned == 0 {
				continue // drained by a later link in the previous round
			}
			if s := l.residual / float64(l.unassigned); s < share {
				share = s
			}
		}
		if math.IsInf(share, 1) {
			panic("flownet: unassigned flows but no constraining link")
		}
		// With a bounded horizon, frozen boundary flows can saturate a link
		// completely; keep interior flows trickling so they still terminate.
		if share < 1 {
			share = 1
		}
		// Freeze every link currently at the bottleneck share. Symmetric
		// exchanges produce thousands of tied links; handling them in one
		// round keeps rebalancing near-linear. Each candidate re-checks its
		// share because freezing an earlier link may have changed it.
		froze := false
		live := act[:0]
		for _, l := range act {
			if l.unassigned == 0 {
				continue
			}
			if l.residual/float64(l.unassigned) > share*(1+1e-12) {
				live = append(live, l)
				continue
			}
			for _, f := range segment[l] {
				if f.assigned == epoch {
					continue // already frozen this round
				}
				f.assigned = epoch
				remaining--
				froze = true
				for _, fl := range f.path {
					fl.residual -= share
					if fl.residual < 0 {
						fl.residual = 0
					}
					fl.unassigned--
				}
				n.applyRate(f, share)
			}
			if l.unassigned > 0 {
				live = append(live, l)
			}
		}
		if !froze {
			panic("flownet: water-filling made no progress")
		}
		act = live
	}
	n.probeSample(links, len(flows))
}
