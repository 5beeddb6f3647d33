package sim

import "fmt"

// Signal is a one-shot completion flag that processes and continuations can
// wait on and event callbacks can fire. Once fired it stays fired: later
// Waits return immediately. This matches the semantics of a CUDA event or an
// MPI request completion.
type Signal struct {
	eng     *Engine
	name    string
	fired   bool
	firedAt Time
	waiters []task // processes (Wait) and continuations (Then), in arrival order
	cbs     []func()
}

// NewSignal returns an unfired signal.
func NewSignal(e *Engine, name string) *Signal {
	return &Signal{eng: e, name: name}
}

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

// FiredAt returns the virtual time the signal fired. It panics if the signal
// has not fired.
func (s *Signal) FiredAt() Time {
	if !s.fired {
		panic("sim: FiredAt on unfired signal " + s.name)
	}
	return s.firedAt
}

// Fire marks the signal complete, queues all waiting processes and
// continuations in arrival order, and then runs any registered callbacks.
// Firing twice panics: in this codebase a double fire always indicates a
// scheduling bug.
func (s *Signal) Fire() {
	if s.fired {
		panic("sim: signal fired twice: " + s.name)
	}
	s.fired = true
	s.firedAt = s.eng.now
	for _, t := range s.waiters {
		s.eng.wake(t)
	}
	s.waiters = nil
	cbs := s.cbs
	s.cbs = nil
	for _, cb := range cbs {
		cb()
	}
}

// Wait parks the process until the signal fires. If it has already fired,
// Wait returns immediately.
func (s *Signal) Wait(p *Proc) {
	if s.fired {
		return
	}
	s.waiters = append(s.waiters, task{p: p})
	p.park()
}

// Then is the continuation form of Wait: fn runs inline if the signal has
// already fired (as Wait returns at once); otherwise fn joins the waiter list
// and Fire queues it exactly where it would queue a waiting process.
func (s *Signal) Then(fn func()) {
	if s.fired {
		fn()
		return
	}
	s.eng.waiting++
	s.waiters = append(s.waiters, task{fn: fn})
}

// OnFire registers a callback to run when the signal fires (immediately if it
// already has). Callbacks run in registration order inside the engine.
func (s *Signal) OnFire(fn func()) {
	if s.fired {
		fn()
		return
	}
	s.cbs = append(s.cbs, fn)
}

// WaitAll parks the process until every signal in sigs has fired.
func WaitAll(p *Proc, sigs ...*Signal) {
	for _, s := range sigs {
		s.Wait(p)
	}
}

// WaitAny parks the process until at least one signal in sigs has fired and
// returns the index of a fired signal (the lowest-indexed one at wake time).
// It panics on an empty slice.
func WaitAny(p *Proc, sigs ...*Signal) int {
	if len(sigs) == 0 {
		panic("sim: WaitAny with no signals")
	}
	for {
		for i, s := range sigs {
			if s.fired {
				return i
			}
		}
		// Register with all, wake on first fire. Registration is cheap and
		// stale entries are cleaned lazily: a woken process re-checks and the
		// remaining signals drop the proc when they fire (waking an already
		// running process is prevented by the single-owner discipline: a
		// process can only be parked in one place at a time, so we must
		// de-register before returning).
		w := &anyWaiter{p: p}
		for _, s := range sigs {
			if !s.fired {
				s.cbs = append(s.cbs, w.wake(s.eng))
			}
		}
		p.park()
	}
}

type anyWaiter struct {
	p     *Proc
	woken bool
}

func (w *anyWaiter) wake(e *Engine) func() {
	return func() {
		if w.woken {
			return
		}
		w.woken = true
		e.makeRunnable(w.p)
	}
}

// Gate is a reusable rendezvous between one owning process and event-context
// callbacks: callbacks call Open, the owner calls Await. Unlike the one-shot
// Signal, a Gate cycles: Await consumes the open state, so a driver loop can
// park on the same Gate once per wake without allocating. Open is level-
// triggered and idempotent; spurious Await returns are possible (the owner
// must re-check its own readiness state) but lost wakeups are not.
type Gate struct {
	owner  *Proc
	open   bool
	parked bool
}

// NewGate returns a closed gate owned by p. Only p may Await.
func NewGate(p *Proc) *Gate { return &Gate{owner: p} }

// Open marks the gate open and wakes the owner if it is parked in Await.
// Safe to call any number of times from event callbacks.
func (g *Gate) Open() {
	if g.open {
		return
	}
	g.open = true
	if g.parked {
		g.parked = false
		g.owner.eng.makeRunnable(g.owner)
	}
}

// Await parks the owner until the gate is open (returning immediately if it
// already is), then closes it.
func (g *Gate) Await() {
	if !g.open {
		g.parked = true
		g.owner.park()
	}
	g.open = false
}

// Resource is a counting resource with FIFO admission, used to model serially
// shared facilities such as an MPI progress engine or a copy/DMA engine.
type Resource struct {
	eng      *Engine
	name     string
	capacity int
	inUse    int
	queue    []task // processes (Acquire) and continuations (AcquireThen)
}

// NewResource returns a resource with the given concurrency capacity.
func NewResource(e *Engine, name string, capacity int) *Resource {
	if capacity < 1 {
		panic(fmt.Sprintf("sim: resource %s capacity %d < 1", name, capacity))
	}
	return &Resource{eng: e, name: name, capacity: capacity}
}

// Acquire parks the process until a unit of the resource is available, then
// claims it. Admission is strictly FIFO.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.capacity && len(r.queue) == 0 {
		r.inUse++
		return
	}
	r.queue = append(r.queue, task{p: p})
	p.park()
	// Woken by Release, which transferred the unit to us already.
}

// AcquireThen is the continuation form of Acquire: fn runs inline holding a
// unit if one is free and nobody is queued; otherwise fn joins the same FIFO
// queue as waiting processes and Release hands it the unit by queueing it.
// fn must eventually call Release.
func (r *Resource) AcquireThen(fn func()) {
	if r.inUse < r.capacity && len(r.queue) == 0 {
		r.inUse++
		fn()
		return
	}
	r.eng.waiting++
	r.queue = append(r.queue, task{fn: fn})
}

// Release returns a unit. If processes or continuations are queued,
// ownership transfers directly to the head of the queue.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: release of idle resource " + r.name)
	}
	if len(r.queue) > 0 {
		t := r.queue[0]
		r.queue[0] = task{}
		r.queue = r.queue[1:]
		r.eng.wake(t)
		return // unit transferred, inUse unchanged
	}
	r.inUse--
}

// InUse returns the number of currently held units.
func (r *Resource) InUse() int { return r.inUse }

// Use runs fn while holding one unit of the resource.
func (r *Resource) Use(p *Proc, fn func()) {
	r.Acquire(p)
	defer r.Release()
	fn()
}
