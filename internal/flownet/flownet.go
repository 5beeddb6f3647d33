// Package flownet models data transfers as flows over a network of
// bandwidth-limited links, with max-min fair rate allocation.
//
// Each flow traverses an ordered path of links. At any instant every flow has
// a rate: the max-min fair allocation given all concurrently active flows and
// the capacity of every link they share. When the set of flows changes (one
// starts or finishes) the rates of the affected connected component are
// recomputed via water-filling and completion events are rescheduled for
// flows whose rate changed.
//
// This captures the contention effects the paper's results hinge on: a STAGED
// exchange funnels six GPUs' halos through two host-DRAM links and loses to
// PEERMEMCPY, which spreads the same bytes over six NVLinks.
//
// The implementation is engineered for cluster-scale simulations (hundreds of
// nodes, thousands of concurrent flows): component discovery and
// water-filling use epoch-stamped scratch fields on links and flows rather
// than maps, water-filling takes bottleneck links from a heap instead of
// scanning every link per round, and rescheduling skips flows whose rate is
// unchanged.
package flownet

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"github.com/nodeaware/stencil/internal/sim"
)

// Loss models per-message delivery faults on a link. Each field is the
// probability, per message crossing the link, of the corresponding fault.
// The network itself never consults these — flows always deliver their
// bytes — because loss is a message-level concept: the MPI layer samples
// them at flow completion with a deterministic hash-based draw so that
// corruption flips real payload bytes and drops really withhold delivery.
type Loss struct {
	Drop    float64 // message withheld entirely
	Corrupt float64 // payload bytes flipped in the receive buffer
	Dup     float64 // message delivered twice
}

// Zero reports whether the loss model is a no-op.
func (ls Loss) Zero() bool { return ls.Drop == 0 && ls.Corrupt == 0 && ls.Dup == 0 }

// Link is a unidirectional bandwidth resource.
type Link struct {
	Name     string
	Capacity float64 // bytes per second
	base     float64 // healthy capacity, set at creation
	down     bool    // marked failed by FailLink
	downs    uint64  // up→down transitions (see DownCount)
	loss     Loss    // per-message delivery-fault probabilities
	flows    []*Flow // active flows crossing the link

	// rateSum is the incrementally maintained sum of the current rates of
	// all flows crossing the link. It lets a bounded-horizon rebalance
	// subtract the frozen boundary traffic of a horizon link in O(1)
	// instead of enumerating the link's (possibly thousands of) flows.
	rateSum float64

	// Scratch fields for rebalance; valid only when visit == Network.epoch.
	visit      uint64
	residual   float64
	unassigned int
	interior   float64 // rate sum of interior (re-waterfilled) flows
	inner      []*Flow // interior flows, in discovery order
	idx        int     // discovery order within the component
	hpos       int     // index in Network.heap, -1 when not in it
}

// NewLink creates a link with the given capacity in bytes/second.
func NewLink(name string, capacity float64) *Link {
	if capacity <= 0 {
		panic(fmt.Sprintf("flownet: link %s capacity %g <= 0", name, capacity))
	}
	return &Link{Name: name, Capacity: capacity, base: capacity}
}

// NumFlows returns the number of flows currently traversing the link.
func (l *Link) NumFlows() int { return len(l.flows) }

// BaseCapacity returns the healthy (creation-time) capacity, the reference
// point for degradation factors and recovery.
func (l *Link) BaseCapacity() float64 { return l.base }

// Down reports whether the link is marked failed (FailLink without a
// matching RestoreLink). A down link still carries a residual trickle so
// in-flight flows remain schedulable; higher layers consult this flag to
// route around it.
func (l *Link) Down() bool { return l.down }

// DownCount returns the number of up→down transitions the link has seen
// (FailLink calls on an up link). Health scoring uses deltas of this counter
// to notice a flapping link even when every instantaneous Down() sample
// happens to land in an up window.
func (l *Link) DownCount() uint64 { return l.downs }

// SetLoss installs per-message delivery-fault probabilities on the link.
// Purely advisory state: capacities, waterfilling, and the mutation counter
// are untouched. The MPI reliable-delivery layer samples it per message.
func (l *Link) SetLoss(ls Loss) { l.loss = ls }

// Loss returns the link's per-message delivery-fault probabilities.
func (l *Link) Loss() Loss { return l.loss }

// Health returns Capacity/BaseCapacity: 1 when healthy, ~0 when failed.
func (l *Link) Health() float64 { return l.Capacity / l.base }

func (l *Link) removeFlow(f *Flow) {
	for i, g := range l.flows {
		if g == f {
			l.flows[i] = l.flows[len(l.flows)-1]
			l.flows[len(l.flows)-1] = nil
			l.flows = l.flows[:len(l.flows)-1]
			l.rateSum -= f.rate
			if l.rateSum < 0 {
				l.rateSum = 0
			}
			return
		}
	}
	panic("flownet: flow not on link " + l.Name)
}

// Flow is an in-flight transfer across a path of links. It embeds its
// completion signal and its completion event, so a flow is one allocation.
type Flow struct {
	// The name is the done signal's name followed by num (left out when
	// negative), built only by the panic messages that read it.
	num        int32
	pending    bool // started this instant, not yet allocated a rate
	path       []*Link
	total      float64 // original size in bytes
	remaining  float64 // bytes left to move
	rate       float64 // current allocated bytes/sec
	lastUpdate sim.Time
	done       sim.Signal
	completion sim.Event // scheduled while the flow has a rate

	visit    uint64 // component-discovery stamp (interior)
	assigned uint64 // water-filling stamp

	net *Network // owner, for flush-forcing accessors

	// Intrusive list of active flows (Network.head), maintained so the
	// reference oracle can enumerate the whole network without the Network
	// tracking per-flow maps on the hot path.
	prev, next *Flow
}

// Done returns the signal fired when the flow's last byte arrives.
func (f *Flow) Done() *sim.Signal { return &f.done }

// name returns the flow's debug name.
func (f *Flow) name() string {
	if f.num < 0 {
		return f.done.Name()
	}
	return f.done.Name() + strconv.Itoa(int(f.num))
}

// flowCompletion is a Flow seen as the handler of its completion event.
type flowCompletion Flow

func (c *flowCompletion) Handle() {
	f := (*Flow)(c)
	f.net.finish(f)
}

// Rate returns the currently allocated rate in bytes/second. Rate changes
// from the current instant are materialized first (see Network batching).
func (f *Flow) Rate() float64 {
	if f.net != nil {
		f.net.flushPending()
	}
	return f.rate
}

// Remaining returns the bytes not yet transferred as of the last rate change.
func (f *Flow) Remaining() float64 {
	if f.net != nil {
		f.net.flushPending()
	}
	return f.remaining
}

// Network owns a set of links and the active flows over them.
type Network struct {
	eng       *sim.Engine
	active    int
	epoch     uint64
	head      *Flow  // intrusive list of active flows
	mutations uint64 // capacity-change counter (see Mutations)

	// MaxHops bounds how far a rate recomputation propagates from the
	// changed flow, measured in link hops of the link-flow bipartite graph.
	// Zero means unbounded (exact max-min over the whole connected
	// component). With a bound, flows beyond the horizon keep their current
	// rates and are subtracted from link capacities as constants; the
	// allocation inside the horizon is exact given that boundary. It is an
	// approximation, not a neutral speedup: the exchange layer's automatic
	// bound of 1 above 32 nodes makes a 64-node Fig 12b exchange take
	// 18.25-18.73 ms of virtual time against 17.03 ms exact, 7-10% off.
	MaxHops int

	// Same-instant batching: flow arrivals, departures, and capacity
	// changes within one virtual instant queue their seed links here and a
	// single water-fill runs when the engine is about to advance the clock.
	// Rates only matter across instants (settling within an instant covers
	// zero elapsed time), so the batched allocation — the exact max-min for
	// the instant's final flow set — schedules the same completions as
	// per-mutation recomputation, at a fraction of the cost.
	pendSeeds []*Link
	pendFlows []*Flow // flows started this instant (pending flag set)

	// Probe, when non-nil, observes every waterfill rebalance: one
	// LinkSample per component link with its post-waterfill utilization and
	// active-flow count, then one Rebalanced call with the component size.
	// Probes must be passive (never schedule engine events or mutate the
	// network); internal/telemetry.Recorder satisfies this interface.
	Probe Probe

	// Reusable scratch for rebalance.
	compFlows []*Flow
	compLinks []*Link
	compDepth []int
	heap      linkHeap
	cands     []*Link // one round's bottleneck candidates
}

// Probe observes rate rebalances for telemetry. Utilization is the link's
// allocated rate divided by its live capacity, clamped to [0, 1]; every
// mutation (flow start/finish/abort, capacity change) funnels through a
// rebalance, so sampling here sees every change exactly once per instant.
type Probe interface {
	// LinkSample reports one link's state after a waterfill pass.
	LinkSample(t sim.Time, link string, util float64, flows int)
	// Rebalanced reports one waterfill pass: component size in links and
	// flows, plus the network-wide active flow count.
	Rebalanced(t sim.Time, links, flows, active int)
}

// New creates an empty network bound to the engine.
func New(e *sim.Engine) *Network {
	n := &Network{eng: e}
	e.AddFlusher(n.flushPending)
	return n
}

// dirty queues seed links for the end-of-instant water-fill.
func (n *Network) dirty(seeds []*Link) {
	n.pendSeeds = append(n.pendSeeds, seeds...)
	n.eng.RequestFlush()
}

// flushPending materializes all rate changes queued during the current
// instant with one water-fill over the union of the queued seeds. Invoked by
// the engine before the clock advances, and by accessors that need current
// rates mid-instant. No-op when nothing is queued.
func (n *Network) flushPending() {
	if len(n.pendSeeds) == 0 {
		return
	}
	for _, f := range n.pendFlows {
		f.pending = false
	}
	clear(n.pendFlows) // scratch must not keep a finished flow reachable
	n.pendFlows = n.pendFlows[:0]
	seeds := n.pendSeeds
	n.rebalance(seeds)
	n.pendSeeds = seeds[:0]
}

// ActiveFlows returns the number of in-flight flows.
func (n *Network) ActiveFlows() int { return n.active }

// Mutations returns a counter incremented every time a link capacity
// actually changes (SetCapacity, and through it Degrade/Fail/Restore).
// Higher layers use it to memoize topology-health-dependent decisions: if
// Mutations is unchanged, every link's capacity and down flag is unchanged.
func (n *Network) Mutations() uint64 { return n.mutations }

// link/unlink maintain the intrusive active-flow list.
func (n *Network) link(f *Flow) {
	f.next = n.head
	if n.head != nil {
		n.head.prev = f
	}
	n.head = f
}

func (n *Network) unlink(f *Flow) {
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		n.head = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	}
	f.prev, f.next = nil, nil
}

// StartFlow begins transferring bytes over path and returns the flow. The
// flow's Done signal fires when it completes. A zero-byte flow completes at
// the current time (signal fires immediately). An empty path is not allowed:
// model zero-cost local moves at a higher layer.
func (n *Network) StartFlow(name string, path []*Link, bytes float64) *Flow {
	return n.StartFlowNum(name, -1, path, bytes)
}

// StartFlowNum is StartFlow(prefix + strconv.Itoa(num), ...), with the name
// built only when something reads it; a negative num names the flow prefix.
func (n *Network) StartFlowNum(prefix string, num int, path []*Link, bytes float64) *Flow {
	f := &Flow{
		num:        int32(num),
		path:       path,
		total:      bytes,
		remaining:  bytes,
		lastUpdate: n.eng.Now(),
	}
	f.done.Init(n.eng, prefix)
	if len(path) == 0 {
		panic("flownet: StartFlow with empty path: " + f.name())
	}
	if bytes < 0 {
		panic(fmt.Sprintf("flownet: negative flow size %g: %s", bytes, f.name()))
	}
	f.completion.Init(n.eng, (*flowCompletion)(f))
	if bytes == 0 {
		f.done.Fire()
		return f
	}
	f.net = n
	f.pending = true
	n.active++
	n.link(f)
	for _, l := range f.path {
		l.flows = append(l.flows, f)
	}
	n.pendFlows = append(n.pendFlows, f)
	n.dirty(f.path)
	return f
}

// finish removes a completed flow and fires its signal.
func (n *Network) finish(f *Flow) {
	now := n.eng.Now()
	f.settle(now)
	// Rate recomputations accumulate floating-point residue proportional to
	// the flow size, and the clock rounds the completion instant to its own
	// resolution, which leaves up to about rate·ulp(now) bytes; anything
	// beyond that tolerance is a scheduling bug.
	ulp := math.Nextafter(now, math.Inf(1)) - now
	if f.remaining > 1e-9*f.total+1e-3+4*f.rate*ulp {
		panic(fmt.Sprintf("flownet: flow %s completed with %g bytes remaining", f.name(), f.remaining))
	}
	n.active--
	n.unlink(f)
	for _, l := range f.path {
		l.removeFlow(f)
	}
	f.done.Fire()
	n.dirty(f.path)
}

// FailFraction is the residual capacity fraction of a failed link: the link
// is effectively dead (error-retry trickle) but in-flight flows keep a
// nonzero rate so completion events stay schedulable and a later recovery
// re-waterfills them to sane times.
const FailFraction = 1e-6

// SetCapacity changes a link's capacity mid-simulation and re-waterfills the
// affected component: in-flight flows crossing the link, and flows sharing
// links with them transitively across the connected component (or within
// MaxHops of the link when a horizon is set), have their rates and
// completion times recomputed exactly as if the set of flows had changed.
func (n *Network) SetCapacity(l *Link, capacity float64) {
	if capacity <= 0 {
		panic(fmt.Sprintf("flownet: link %s capacity %g <= 0", l.Name, capacity))
	}
	if capacity == l.Capacity {
		return
	}
	l.Capacity = capacity
	n.mutations++
	n.pendSeeds = append(n.pendSeeds, l)
	n.eng.RequestFlush()
}

// DegradeLink sets a link to factor × its healthy capacity (factor in (0,1]
// degrades, factor 1 restores, factor > 1 models an upgrade).
func (n *Network) DegradeLink(l *Link, factor float64) {
	if factor <= 0 {
		panic(fmt.Sprintf("flownet: degrade factor %g <= 0 on %s", factor, l.Name))
	}
	n.SetCapacity(l, l.base*factor)
}

// FailLink marks a link down and collapses its capacity to the residual
// trickle. Idempotent.
func (n *Network) FailLink(l *Link) {
	if !l.down {
		l.down = true
		l.downs++
		n.mutations++
	}
	cap := l.base * FailFraction
	if cap < 1 {
		cap = 1
	}
	n.SetCapacity(l, cap)
}

// RestoreLink clears the failed mark and restores the healthy capacity,
// re-waterfilling any flows that were crawling across the outage. Idempotent.
func (n *Network) RestoreLink(l *Link) {
	if l.down {
		l.down = false
		n.mutations++
	}
	n.SetCapacity(l, l.base)
}

// Abort cancels an in-flight flow: bytes already moved stay moved, the Done
// signal never fires, and the freed bandwidth is redistributed to the
// remaining flows. Aborting a completed (or zero-byte) flow is a no-op.
// Callers that retry a transfer start a fresh flow.
func (n *Network) Abort(f *Flow) {
	if f.pending {
		// Started earlier this instant; no rate was ever allocated. Remove
		// it before the batched water-fill sees it.
		f.pending = false
		for i, g := range n.pendFlows {
			if g == f {
				last := len(n.pendFlows) - 1
				n.pendFlows[i] = n.pendFlows[last]
				n.pendFlows[last] = nil
				n.pendFlows = n.pendFlows[:last]
				break
			}
		}
		n.active--
		n.unlink(f)
		for _, l := range f.path {
			l.removeFlow(f) // rate is still 0: rateSum unchanged
		}
		return
	}
	if !f.completion.Scheduled() {
		return
	}
	f.settle(n.eng.Now())
	f.completion.Cancel()
	n.active--
	n.unlink(f)
	for _, l := range f.path {
		l.removeFlow(f) // subtracts f.rate from each link's rateSum
	}
	f.rate = 0
	n.dirty(f.path)
}

// settle accounts bytes moved at the current rate since the last update.
func (f *Flow) settle(now sim.Time) {
	f.remaining -= f.rate * (now - f.lastUpdate)
	if f.remaining < 0 {
		f.remaining = 0
	}
	f.lastUpdate = now
}

// rebalance recomputes the max-min fair allocation for the connected
// component of flows reachable from the seed links and reschedules the
// completion events of flows whose rate changed. Flows sharing no link
// (transitively) with the seed are untouched: by the uniqueness of the
// max-min allocation their rates cannot have changed.
//
// The recomputation is incremental in two ways. First, only links within
// MaxHops of the seed are re-waterfilled; a link first reached at the
// horizon keeps its boundary traffic frozen, and that frozen load is
// derived in O(1) from the link's incrementally maintained rate sum
// instead of enumerating its flows (a horizon NIC or host-memory link can
// carry thousands). Second, flows whose allocated rate is unchanged keep
// their scheduled completion event, and flows whose rate did change reuse
// the same event object via Engine.Reschedule rather than allocating a
// fresh one.
func (n *Network) rebalance(seed []*Link) {
	n.epoch++
	epoch := n.epoch

	// Component discovery (breadth-first over the link-flow bipartite
	// graph) into reusable scratch slices. Links first reached at the
	// horizon (depth == MaxHops) are constraint-only: their interior flows
	// participate in the waterfill but their other flows stay frozen.
	// Discovery also settles each flow and lists it on every link of its
	// path with the link's interior load (rates about to be replaced), so
	// horizon links can subtract exactly the boundary remainder: residual =
	// Capacity - (rateSum - interior). For non-horizon links every flow is
	// interior (discovery enumerates them all); for horizon links the
	// boundary flows stay frozen, and the interior list keeps the freeze
	// pass from scanning a horizon link's (possibly thousands of) boundary
	// flows.
	now := n.eng.Now()
	flows := n.compFlows[:0]
	links := n.compLinks[:0]
	depth := n.compDepth[:0]
	for _, l := range seed {
		if l.visit != epoch {
			l.visit = epoch
			l.interior = 0
			l.unassigned = 0
			l.inner = l.inner[:0]
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
			f.settle(now)
			flows = append(flows, f)
			for _, fl := range f.path {
				if fl.visit != epoch {
					fl.visit = epoch
					fl.interior = 0
					fl.unassigned = 0
					fl.inner = fl.inner[:0]
					links = append(links, fl)
					depth = append(depth, d+1)
				}
				fl.interior += f.rate
				fl.unassigned++
				fl.inner = append(fl.inner, f)
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

	// Water-filling: repeatedly freeze the most-constrained links' flows at
	// the bottleneck share. Only links with interior flows can constrain
	// the allocation; the heap holds them keyed by a lower bound on their
	// share (see linkHeap).
	h := n.heap[:0]
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
			l.idx = i
			l.hpos = len(h)
			h = append(h, heapEntry{l.residual / float64(l.unassigned), l})
		}
	}
	h.init()
	remaining := len(flows)
	for remaining > 0 {
		// The bottleneck share is the exact minimum share: a top whose key
		// is its current share is at or below every other link's key, and
		// so every other link's share.
		share := math.Inf(1)
		for len(h) > 0 {
			top := h[0].l
			s := top.residual / float64(top.unassigned)
			if s <= h[0].key {
				share = s
				break
			}
			h[0].key = s
			h.siftDown(0)
		}
		if math.IsInf(share, 1) {
			panic("flownet: unassigned flows but no constraining link")
		}
		// With a bounded horizon, frozen boundary flows can saturate a link
		// completely; keep interior flows trickling so they still terminate.
		if share < 1 {
			share = 1
		}
		// Freeze every link currently at the bottleneck share, in discovery
		// order. Symmetric exchanges produce thousands of tied links;
		// handling them in one round keeps rebalancing near-linear. Every
		// link whose share is within the tie tolerance has a key within it
		// too, so popping those keys yields every candidate. Each candidate
		// re-checks its share because freezing an earlier link may have
		// changed it.
		limit := share * (1 + 1e-12)
		cands := n.cands[:0]
		for len(h) > 0 && h[0].key <= limit {
			cands = append(cands, h.pop())
		}
		slices.SortFunc(cands, func(a, b *Link) int { return a.idx - b.idx })
		froze := false
		for c := 0; c < len(cands); c++ {
			l := cands[c]
			if l.unassigned == 0 {
				continue // drained by an earlier link this round
			}
			if s := l.residual / float64(l.unassigned); s > limit {
				h.push(l, s)
				continue
			}
			for _, f := range l.inner {
				if f.assigned == epoch {
					continue // already frozen
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
					if fl.hpos < 0 {
						continue // a candidate: it re-checks when visited
					}
					if fl.unassigned == 0 {
						h.remove(fl.hpos) // drained: it constrains nothing now
						continue
					}
					// Freezing a flow at the bottleneck share never lowers
					// a higher share, so the key stays a lower bound unless
					// rounding or the residual clamp lowered it.
					if s := fl.residual / float64(fl.unassigned); s < h[fl.hpos].key {
						h[fl.hpos].key = s
						h.siftUp(fl.hpos)
						if s <= limit && fl.idx > l.idx {
							// Now within the tolerance and not yet passed
							// in discovery order: it joins this round.
							h.remove(fl.hpos)
							at := c + 1
							for at < len(cands) && cands[at].idx < fl.idx {
								at++
							}
							cands = slices.Insert(cands, at, fl)
						}
					} else if 4*fl.hpos+1 >= len(h) {
						// A leaf's key can rise to its share without
						// breaking heap order, which spares re-keying the
						// link when it reaches the top.
						h[fl.hpos].key = s
					}
				}
				n.applyRate(f, share)
			}
		}
		n.cands = cands
		if !froze {
			panic("flownet: water-filling made no progress")
		}
	}
	n.heap = h
	n.probeSample(links, len(flows))
	// The scratch lists keep their capacity but not their flows: a flow
	// that finishes must not stay reachable through them.
	clear(flows)
	for _, l := range links {
		clear(l.inner)
	}
}

// probeSample reports a rebalanced component to the installed probe.
func (n *Network) probeSample(links []*Link, flows int) {
	if n.Probe == nil {
		return
	}
	now := n.eng.Now()
	for _, l := range links {
		util := 0.0
		if l.Capacity > 0 {
			util = l.rateSum / l.Capacity
			if util > 1 {
				util = 1
			}
		}
		n.Probe.LinkSample(now, l.Name, util, len(l.flows))
	}
	n.Probe.Rebalanced(now, len(links), flows, n.active)
}

// applyRate installs a flow's new rate, updates the rate sums of the links
// it crosses, and reschedules its completion — reusing the existing
// completion event (and its closure) when one is scheduled, and skipping
// all churn when the rate is unchanged.
func (n *Network) applyRate(f *Flow, rate float64) {
	if rate <= 0 {
		// Should not happen: every flow is on at least one link with
		// positive capacity, so water-filling always assigns a rate.
		panic("flownet: zero rate assigned to " + f.name())
	}
	if rate == f.rate && f.completion.Scheduled() {
		return
	}
	if rate != f.rate {
		for _, l := range f.path {
			l.rateSum += rate - f.rate
			if l.rateSum < 0 {
				l.rateSum = 0
			}
		}
		f.rate = rate
	}
	// A first schedule and a move take the same bookkeeping (see
	// Engine.Reschedule).
	n.eng.Reschedule(&f.completion, f.remaining/f.rate)
}
