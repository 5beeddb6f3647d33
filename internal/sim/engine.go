// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock and executes three kinds of work:
//
//   - Events: plain callbacks scheduled at a virtual time (Engine.At,
//     Engine.After). Events may be cancelled before they fire.
//   - Processes: goroutines that execute simulated "blocking" code
//     (Proc.Sleep, Signal.Wait, Resource.Acquire). Suited to long-lived
//     actors such as MPI ranks, whose control flow is a loop.
//   - Continuations: plain closures that model short-lived activities (one
//     message transfer) as a chain of steps without a goroutine or stack
//     (Engine.Go, Engine.SleepThen, Signal.Then, Resource.AcquireThen).
//
// Exactly one process, continuation or event callback runs at any real
// instant, so simulated code needs no locking and runs are fully
// deterministic.
//
// The scheduling discipline is cooperative: the engine resumes a runnable
// process, the process runs until it parks on a simulated primitive, and
// control returns to the engine. When no process or continuation is
// runnable the engine pops the earliest pending event, advances the clock to
// it, and fires it. Ties in time are broken by insertion order (FIFO), which
// keeps runs reproducible.
//
// Processes and continuations share one FIFO ready queue, and every
// continuation primitive mirrors a process primitive slot for slot: Go
// queues where Spawn queues the new process, SleepThen consumes the one
// event sequence number Sleep consumes and queues where Sleep's wakeup
// resumes, Then joins the same waiter list as Wait (running inline when the
// signal has fired, as Wait returns at once), and AcquireThen joins the same
// FIFO admission queue as Acquire. A continuation chain that replaces a
// process therefore runs each step in exactly the ready-queue slot where the
// process would have resumed, and the event order, sequence numbers and
// virtual times of a run do not depend on which of the two forms models an
// activity.
package sim

import (
	"fmt"
)

// Time is a point on the virtual clock, in seconds.
type Time = float64

// Handler is a piece of simulated work the engine runs: an event's
// callback, a signal's callback or a queued continuation. Closures reach it
// through funcHandler; an owner that embeds its signals and events
// implements Handle itself, so registering it allocates nothing.
type Handler interface{ Handle() }

// funcHandler adapts a closure to Handler. A func value is pointer-shaped,
// so the conversion does not allocate.
type funcHandler func()

func (f funcHandler) Handle() { f() }

// Event is a scheduled callback. It is returned by At/After so callers can
// cancel it before it fires; firing a cancelled event is a no-op. An owner
// can also embed an Event, bind it with Init and schedule it with
// Reschedule (see Init).
type Event struct {
	when      Time
	seq       uint64
	h         Handler
	cancelled bool
	queue     bool // SleepThen: h is a continuation to queue, not call
	pooled    bool // engine-owned (SleepThen, AfterHandler): reused once it fired
	index     int  // position in the heap, -1 when not queued
	eng       *Engine
}

// Init binds an owner-embedded event to the engine and to the handler it
// runs when it fires. The event starts unscheduled; Engine.Reschedule
// schedules it with exactly the sequence-number and Counts bookkeeping of
// At, so an owned event and an At event are interchangeable in every
// simulated result. Init must not be called on an event that is queued or
// that anyone may still Cancel or Reschedule.
func (ev *Event) Init(e *Engine, h Handler) {
	*ev = Event{h: h, index: -1, eng: e}
}

// Scheduled reports whether the event is queued: scheduled and neither
// fired nor cancelled since.
func (ev *Event) Scheduled() bool { return ev.index >= 0 }

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is harmless. The event is removed from the queue
// eagerly so heavy reschedulers (the flow network) don't flood the heap with
// dead entries.
func (ev *Event) Cancel() {
	ev.cancelled = true
	if ev.index >= 0 && ev.eng != nil {
		ev.eng.queue.remove(ev.index)
	}
}

// Cancelled reports whether Cancel was called on the event.
func (ev *Event) Cancelled() bool { return ev.cancelled }

// When returns the virtual time the event is scheduled for.
func (ev *Event) When() Time { return ev.when }

// eventHeap is a hand-rolled 4-ary min-heap ordered by (when, seq). The
// standard container/heap pays an interface call per comparison and the event
// queue is the hottest data structure in the simulator, so it gets a
// dedicated implementation. (when, seq) is a strict total order — seq is
// unique — so the pop sequence, and therefore every simulation result, is
// independent of heap arity and sift details.
type eventHeap []*Event

// before reports whether a must fire before b.
func before(a, b *Event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

func (h eventHeap) siftUp(i int) {
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		p := h[parent]
		if !before(ev, p) {
			break
		}
		h[i] = p
		p.index = i
		i = parent
	}
	h[i] = ev
	ev.index = i
}

func (h eventHeap) siftDown(i int) {
	n := len(h)
	ev := h[i]
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
			if before(h[c], h[best]) {
				best = c
			}
		}
		b := h[best]
		if !before(b, ev) {
			break
		}
		h[i] = b
		b.index = i
		i = best
	}
	h[i] = ev
	ev.index = i
}

func (h *eventHeap) push(ev *Event) {
	ev.index = len(*h)
	*h = append(*h, ev)
	h.siftUp(ev.index)
}

// pop removes and returns the earliest event.
func (h *eventHeap) pop() *Event {
	old := *h
	n := len(old)
	ev := old[0]
	last := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	ev.index = -1
	if n > 1 {
		old[0] = last
		last.index = 0
		(*h).siftDown(0)
	}
	return ev
}

// remove deletes the event at index i.
func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old)
	ev := old[i]
	last := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	ev.index = -1
	if i < n-1 {
		old[i] = last
		last.index = i
		h.fix(i)
	}
}

// fix restores heap order after the event at index i changed its key.
func (h eventHeap) fix(i int) {
	h.siftDown(i)
	h.siftUp(i)
}

// Engine owns the virtual clock, the pending-event queue, and the ready
// queue of runnable processes and continuations. An Engine is not safe for
// concurrent use from multiple goroutines other than through the Proc
// primitives it hands out.
type Engine struct {
	now   Time
	seq   uint64
	queue eventHeap
	// runnable is the FIFO ready queue of processes and continuations; Run
	// drains it from head and resets both when it empties, so a steady
	// state reuses one backing array.
	runnable []task
	head     int
	parked   chan *Proc // handoff channel: a proc announces it has parked or exited
	running  bool
	nprocs   int      // live (spawned, not yet exited) processes
	waiting  int      // continuations parked in a signal's waiters or a resource queue
	freeEv   []*Event // fired engine-owned events, reused by SleepThen and AfterHandler

	// Flushers run after all work at the current instant has drained, just
	// before the clock advances (or Run returns). Subsystems that batch
	// same-instant work (the flow network coalesces rate recomputations,
	// the parallel executor drains deferred payload ops) register once and
	// arm each round with RequestFlush.
	flushers  []func()
	needFlush bool

	counts Counts // deterministic activity tally (see Counts)

	par parExec // deferred-payload executor (see parallel.go)
}

// Counts is a deterministic tally of engine activity, read by the perf
// ledger and the benchmark matrix. Every field is a pure function of the
// simulated run — all mutations happen in engine event context — so counts
// are bit-identical across reruns and payload worker counts.
type Counts struct {
	Scheduled uint64 // events scheduled or rescheduled (At, After, Reschedule, Sleep, SleepThen)
	Executed  uint64 // event callbacks fired
	Spawned   uint64 // goroutine processes spawned (Spawn); continuations are not counted
	PeakQueue int    // high-water mark of the pending-event queue
}

// Counts returns the engine's activity tally so far.
func (e *Engine) Counts() Counts { return e.counts }

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{parked: make(chan *Proc)}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// AddFlusher registers fn to run at the end of every virtual instant that
// requested a flush (RequestFlush): after all events and processes at the
// current time have drained, before the clock advances or Run returns.
// Flushers run in registration order and may schedule new events, wake
// processes, or re-arm the flush; the engine re-drains the instant after
// they run. Flushers must tolerate being invoked with nothing to do.
func (e *Engine) AddFlusher(fn func()) { e.flushers = append(e.flushers, fn) }

// RequestFlush arms the end-of-instant flush. Cheap and idempotent.
func (e *Engine) RequestFlush() { e.needFlush = true }

// runFlushers drains end-of-instant work. Returns true if flushers ran (the
// caller must then re-drain the instant).
func (e *Engine) runFlushers() bool {
	if !e.needFlush {
		return false
	}
	e.needFlush = false
	for _, fn := range e.flushers {
		fn()
	}
	return true
}

// At schedules fn to run at virtual time t. Scheduling in the past (t < Now)
// panics: it would silently corrupt causality.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled in the past: %g < %g", t, e.now))
	}
	e.seq++
	ev := &Event{when: t, seq: e.seq, h: funcHandler(fn), eng: e}
	e.queue.push(ev)
	e.counts.Scheduled++
	if n := len(e.queue); n > e.counts.PeakQueue {
		e.counts.PeakQueue = n
	}
	return ev
}

// After schedules fn to run d seconds from now. Negative d panics.
func (e *Engine) After(d Time, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %g", d))
	}
	return e.At(e.now+d, fn)
}

// Reschedule moves an existing event to fire d seconds from now, reusing the
// event object and its handler. It is the allocation-free equivalent of
// Cancel + After(d, same fn): heavy reschedulers (the flow network moves
// every completion event whenever rates shift) would otherwise churn an Event
// and a closure per adjustment. A cancelled event is revived, and an
// unscheduled owned event (see Event.Init) is scheduled exactly as After
// would schedule a new one. Negative d panics, mirroring After.
func (e *Engine) Reschedule(ev *Event, d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %g", d))
	}
	if ev.eng != e {
		panic("sim: Reschedule on foreign event")
	}
	e.seq++
	ev.when = e.now + d
	ev.seq = e.seq
	ev.cancelled = false
	if ev.index >= 0 {
		e.queue.fix(ev.index)
	} else {
		e.queue.push(ev)
	}
	e.counts.Scheduled++
	if n := len(e.queue); n > e.counts.PeakQueue {
		e.counts.PeakQueue = n
	}
}

// Run drives the simulation until nothing is runnable and the event queue
// is empty, then returns the final virtual time. Processes or continuations
// still parked at that point are deadlocked; Run panics to surface the bug
// rather than returning silently wrong results.
func (e *Engine) Run() Time {
	if e.running {
		panic("sim: Engine.Run re-entered")
	}
	e.running = true
	defer func() { e.running = false }()

	for {
		// Drain the ready queue first: events at the current time have
		// already fired, and woken work should observe that state.
		for e.head < len(e.runnable) {
			t := e.runnable[e.head]
			e.runnable[e.head] = task{}
			e.head++
			if t.p != nil {
				t.p.resume <- struct{}{}
				<-e.parked // p has parked again or exited
			} else {
				t.h.Handle()
			}
		}
		e.runnable = e.runnable[:0]
		e.head = 0
		// The instant is drained when no event remains at the current time;
		// give flushers a chance before advancing the clock or exiting.
		if len(e.queue) == 0 || e.queue[0].when > e.now {
			if e.runFlushers() {
				continue // re-drain: flushers may have added work
			}
		}
		if len(e.queue) == 0 {
			break
		}
		ev := e.queue.pop()
		if ev.cancelled {
			continue
		}
		if ev.when < e.now {
			panic("sim: clock went backwards")
		}
		e.now = ev.when
		e.counts.Executed++
		if ev.queue {
			e.runnable = append(e.runnable, task{h: ev.h})
		} else {
			ev.h.Handle()
		}
		if ev.pooled {
			ev.h = nil
			e.freeEv = append(e.freeEv, ev)
		}
	}
	if e.nprocs > 0 || e.waiting > 0 {
		panic(fmt.Sprintf("sim: deadlock: %d process(es) and %d continuation(s) still parked with no pending events",
			e.nprocs, e.waiting))
	}
	return e.now
}

// task is one ready-queue entry: a parked process to resume, or a
// continuation to run.
type task struct {
	p *Proc
	h Handler
}

// makeRunnable appends p to the runnable queue. Idempotence is the caller's
// responsibility: a process must be parked when this is called.
func (e *Engine) makeRunnable(p *Proc) {
	if p.exited {
		panic("sim: waking exited process " + p.name)
	}
	e.runnable = append(e.runnable, task{p: p})
}

// procWaiter is a process parked in a signal's waiter list or a resource
// queue. Both hold Handlers, so an entry is the same two words whether it
// is a process or a continuation.
type procWaiter Proc

// Handle makes the parked process runnable.
func (w *procWaiter) Handle() { w.eng.makeRunnable((*Proc)(w)) }

// wake wakes one entry of a waiter list or resource queue: a process
// becomes runnable, a continuation is queued.
func (e *Engine) wake(w Handler) {
	if p, ok := w.(*procWaiter); ok {
		p.Handle()
		return
	}
	e.waiting--
	e.runnable = append(e.runnable, task{h: w})
}

// Go queues fn to run as a continuation, in the ready-queue slot where Spawn
// would queue a new process. Like Spawn, it never runs fn inline.
func (e *Engine) Go(fn func()) {
	e.runnable = append(e.runnable, task{h: funcHandler(fn)})
}

// SleepThen queues fn to run d seconds from now: the continuation form of
// Proc.Sleep, scheduling one event with the same sequence number Sleep would
// take and queueing fn where the sleeping process would resume. As for
// Sleep, zero d is allowed and negative d panics.
func (e *Engine) SleepThen(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %g", d))
	}
	e.Reschedule(e.pooledEvent(funcHandler(fn), true), d)
}

// AfterHandler is After for a Handler, on an engine-owned event: nothing
// outside the engine can hold it (it cannot be cancelled), so the engine
// reuses it once it fired. It takes the sequence number and Counts After
// would.
func (e *Engine) AfterHandler(d Time, h Handler) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %g", d))
	}
	e.Reschedule(e.pooledEvent(h, false), d)
}

// pooledEvent returns an unscheduled engine-owned event, reusing a fired
// one when it can.
func (e *Engine) pooledEvent(h Handler, queue bool) *Event {
	var ev *Event
	if n := len(e.freeEv); n > 0 {
		ev = e.freeEv[n-1]
		e.freeEv = e.freeEv[:n-1]
	} else {
		ev = &Event{eng: e, index: -1, pooled: true}
	}
	ev.h, ev.queue = h, queue
	return ev
}

// Proc is a simulated process: a goroutine whose apparent blocking operations
// (Sleep, Wait, Acquire) park it and return control to the engine.
type Proc struct {
	eng    *Engine
	name   string
	resume chan struct{}
	exited bool
	// sleepEv is the proc's reusable wakeup event: a proc has at most one
	// outstanding Sleep (it is parked until the event fires), so the event
	// and its closure are allocated once per proc instead of once per Sleep.
	sleepEv *Event
}

// Spawn creates a process executing fn and marks it runnable. fn starts
// running once Run reaches it; Spawn itself never executes user code.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, resume: make(chan struct{})}
	e.nprocs++
	e.counts.Spawned++
	go func() {
		<-p.resume // wait to be scheduled the first time
		fn(p)
		p.exited = true
		e.nprocs--
		e.parked <- p
	}()
	e.makeRunnable(p)
	return p
}

// Name returns the debug name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine the process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// park yields control to the engine and blocks until something calls
// makeRunnable(p) and the engine resumes it.
func (p *Proc) park() {
	p.eng.parked <- p
	<-p.resume
}

// Sleep suspends the process for d seconds of virtual time. Zero is allowed
// and acts as a yield-and-requeue at the current time; negative panics.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %g in %s", d, p.name))
	}
	e := p.eng
	if p.sleepEv == nil {
		p.sleepEv = &Event{eng: e, index: -1, h: (*procWaiter)(p)}
	}
	e.Reschedule(p.sleepEv, d)
	p.park()
}
