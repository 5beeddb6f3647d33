package sim

import "fmt"

// Fanin aggregates a fixed number of readiness contributions into one
// Signal. It is the per-quadrant replacement for a global barrier: where a
// barrier makes everyone wait for everything, a Fanin lets each consumer wait
// for exactly the events it depends on — e.g. a subdomain's border compute
// waits for the verified arrival of its own halos, not the whole exchange.
//
// A Fanin is created with the number of expected contributions; each Done()
// consumes one, and the signal fires when the count reaches zero. A Fanin
// expecting zero contributions is born fired. Like all sim primitives it is
// engine-threaded: Done must be called in event or process context.
type Fanin struct {
	sig       Signal
	remaining int
}

// NewFanin creates a fan-in expecting n contributions.
func NewFanin(e *Engine, name string, n int) *Fanin {
	f := &Fanin{remaining: n}
	f.sig.Init(e, name)
	if n <= 0 {
		f.sig.Fire()
	}
	return f
}

// Done records one contribution; the last one fires the signal.
func (f *Fanin) Done() {
	if f.remaining <= 0 {
		panic(fmt.Sprintf("sim: Fanin %q Done past zero", f.sig.name))
	}
	f.remaining--
	if f.remaining == 0 {
		f.sig.Fire()
	}
}

// Sig exposes the completion signal.
func (f *Fanin) Sig() *Signal { return &f.sig }

// Wait parks the process until every contribution has arrived.
func (f *Fanin) Wait(p *Proc) { f.sig.Wait(p) }

// Fired reports whether the fan-in has completed.
func (f *Fanin) Fired() bool { return f.sig.Fired() }

// Remaining returns the number of outstanding contributions.
func (f *Fanin) Remaining() int { return f.remaining }
