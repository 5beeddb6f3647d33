package sim

import "fmt"

// Signal is a one-shot completion flag that processes and continuations can
// wait on and event callbacks can fire. Once fired it stays fired: later
// Waits return immediately. This matches the semantics of a CUDA event or an
// MPI request completion.
//
// A Signal can live inside its owner (see Init). Its first waiter and first
// callback are stored inline, so a signal with at most one of each
// allocates nothing for its lists; further ones spill to a side list.
type Signal struct {
	eng     *Engine
	name    string
	firedAt Time
	w0      Handler     // first waiter: a process (Wait) or continuation (Then)
	cb0     Handler     // first callback (OnFire, Notify)
	more    *signalMore // later waiters and callbacks, in arrival order
	fired   bool
}

// signalMore holds a signal's waiters and callbacks beyond the inline first
// ones.
type signalMore struct {
	waiters []Handler
	cbs     []Handler
}

// NewSignal returns an unfired signal.
func NewSignal(e *Engine, name string) *Signal {
	return &Signal{eng: e, name: name}
}

// Init makes s an unfired signal of the engine, for owners that embed their
// signals instead of calling NewSignal. It must not be called on a signal
// that anyone may still wait on, register with, or test: a recycled signal
// would look unfired to a holder that saw it fire.
func (s *Signal) Init(e *Engine, name string) {
	*s = Signal{eng: e, name: name}
}

// Name returns the signal's debug name.
func (s *Signal) Name() string { return s.name }

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
// continuations in arrival order, and then runs the registered callbacks in
// registration order. Anything registered from inside a callback sees the
// signal fired and runs inline. Firing twice panics: in this codebase a
// double fire always indicates a scheduling bug.
func (s *Signal) Fire() {
	if s.fired {
		panic("sim: signal fired twice: " + s.name)
	}
	s.fired = true
	s.firedAt = s.eng.now
	// Drop the lists before running anything, so a fired signal retains
	// none of its waiters or callbacks.
	w0, cb0, more := s.w0, s.cb0, s.more
	s.w0, s.cb0, s.more = nil, nil, nil
	if w0 != nil {
		s.eng.wake(w0)
	}
	if more != nil {
		for _, w := range more.waiters {
			s.eng.wake(w)
		}
	}
	if cb0 != nil {
		cb0.Handle()
	}
	if more != nil {
		for _, h := range more.cbs {
			h.Handle()
		}
	}
}

// addWaiter appends w, a *procWaiter or a continuation, to the waiter list.
func (s *Signal) addWaiter(w Handler) {
	switch {
	case s.w0 == nil:
		s.w0 = w
	case s.more == nil:
		s.more = &signalMore{waiters: []Handler{w}}
	default:
		s.more.waiters = append(s.more.waiters, w)
	}
}

// addCallback appends h to the callback list.
func (s *Signal) addCallback(h Handler) {
	switch {
	case s.cb0 == nil:
		s.cb0 = h
	case s.more == nil:
		s.more = &signalMore{cbs: []Handler{h}}
	default:
		s.more.cbs = append(s.more.cbs, h)
	}
}

// Wait parks the process until the signal fires. If it has already fired,
// Wait returns immediately.
func (s *Signal) Wait(p *Proc) {
	if s.fired {
		return
	}
	s.addWaiter((*procWaiter)(p))
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
	s.addWaiter(funcHandler(fn))
}

// OnFire registers a callback to run when the signal fires (immediately if it
// already has). Callbacks run in registration order inside the engine.
func (s *Signal) OnFire(fn func()) { s.Notify(funcHandler(fn)) }

// Notify is OnFire for a Handler: h.Handle runs when the signal fires
// (immediately if it already has), in the same registration order as OnFire
// callbacks. An owner registering itself allocates no closure.
func (s *Signal) Notify(h Handler) {
	if s.fired {
		h.Handle()
		return
	}
	s.addCallback(h)
}

// Forward makes to fire when s fires, as s.OnFire(to.Fire) would, without
// the method-value closure.
func (s *Signal) Forward(to *Signal) { s.Notify((*forward)(to)) }

// forward is a Signal seen as the Handler that fires it.
type forward Signal

func (f *forward) Handle() { (*Signal)(f).Fire() }

// WaitAll parks the process until every signal in sigs has fired.
func WaitAll(p *Proc, sigs ...*Signal) {
	for _, s := range sigs {
		s.Wait(p)
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
	queue    []Handler // processes (Acquire) and continuations (AcquireThen)
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
	r.queue = append(r.queue, (*procWaiter)(p))
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
	r.queue = append(r.queue, funcHandler(fn))
}

// Release returns a unit. If processes or continuations are queued,
// ownership transfers directly to the head of the queue.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: release of idle resource " + r.name)
	}
	if len(r.queue) > 0 {
		q := r.queue
		w := q[0]
		q[0] = nil
		if len(q) == 1 {
			r.queue = q[:0] // keep the backing array: queues drain and refill every message
		} else {
			r.queue = q[1:]
		}
		r.eng.wake(w)
		return // unit transferred, inUse unchanged
	}
	r.inUse--
}
