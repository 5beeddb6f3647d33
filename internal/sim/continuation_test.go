package sim

import (
	"fmt"
	"strings"
	"testing"
)

// actorStep is one step of a scripted actor: the same script runs either as
// a process or as a continuation chain, so the two forms can be compared.
type actorStep struct {
	op  byte // 's' sleep, 'w' wait, 'a' acquire, 'r' release, 'f' fire
	d   Time
	sig int
}

func sleep(d Time) actorStep { return actorStep{op: 's', d: d} }
func wait(i int) actorStep   { return actorStep{op: 'w', sig: i} }
func fire(i int) actorStep   { return actorStep{op: 'f', sig: i} }

var (
	acquire = actorStep{op: 'a'}
	release = actorStep{op: 'r'}
)

// scenario is a set of scripted actors sharing signals and one resource,
// plus setup that runs before the engine starts (events, callbacks).
type scenario struct {
	name     string
	signals  int
	capacity int
	actors   [][]actorStep
	setup    func(e *Engine, sigs []*Signal, log func(string))
}

// runScenario runs sc, driving actor i as a continuation chain when
// asCont(i), as a process otherwise, and returns the trace of every step's
// completion (actor, step, virtual time) in execution order, plus the
// engine's counts.
func runScenario(sc scenario, asCont func(i int) bool) ([]string, Counts) {
	e := NewEngine()
	var trace []string
	log := func(s string) { trace = append(trace, fmt.Sprintf("%s@%g", s, e.Now())) }
	sigs := make([]*Signal, sc.signals)
	for i := range sigs {
		sigs[i] = NewSignal(e, fmt.Sprintf("s%d", i))
	}
	capacity := sc.capacity
	if capacity == 0 {
		capacity = 1
	}
	res := NewResource(e, "r", capacity)
	if sc.setup != nil {
		sc.setup(e, sigs, log)
	}
	for a, steps := range sc.actors {
		a, steps := a, steps
		if asCont(a) {
			var from func(i int)
			from = func(i int) {
				for ; i < len(steps); i++ {
					st := steps[i]
					i := i
					resume := func() {
						log(fmt.Sprintf("a%d.%d", a, i))
						from(i + 1)
					}
					switch st.op {
					case 's':
						e.SleepThen(st.d, resume)
						return
					case 'w':
						sigs[st.sig].Then(resume)
						return
					case 'a':
						res.AcquireThen(resume)
						return
					case 'r':
						res.Release()
					case 'f':
						sigs[st.sig].Fire()
					}
					log(fmt.Sprintf("a%d.%d", a, i))
				}
			}
			e.Go(func() { from(0) })
			continue
		}
		e.Spawn(fmt.Sprintf("a%d", a), func(p *Proc) {
			for i, st := range steps {
				switch st.op {
				case 's':
					p.Sleep(st.d)
				case 'w':
					sigs[st.sig].Wait(p)
				case 'a':
					res.Acquire(p)
				case 'r':
					res.Release()
				case 'f':
					sigs[st.sig].Fire()
				}
				log(fmt.Sprintf("a%d.%d", a, i))
			}
		})
	}
	e.Run()
	return trace, e.Counts()
}

// TestContinuationsMatchProcesses runs each scenario once with every actor
// a process and once with actors as continuations, and requires identical
// traces — virtual times and execution order — and identical event counts.
func TestContinuationsMatchProcesses(t *testing.T) {
	scenarios := []scenario{
		{
			name: "sleep-chains",
			actors: [][]actorStep{
				{sleep(1), sleep(0), sleep(2), sleep(1)},
				{sleep(0), sleep(1), sleep(1), sleep(0), sleep(2)},
				{sleep(2), sleep(2)},
			},
			setup: func(e *Engine, _ []*Signal, log func(string)) {
				// Events at the instants the sleepers wake: their order
				// against the wakeups depends on sequence numbers.
				for _, at := range []Time{1, 2, 4} {
					at := at
					e.At(at, func() { log(fmt.Sprintf("ev%g", at)) })
				}
			},
		},
		{
			name:    "signal-wait",
			signals: 1,
			actors: [][]actorStep{
				{wait(0), sleep(1)},
				{sleep(1), wait(0)},
				{wait(0)},
			},
			setup: func(e *Engine, sigs []*Signal, _ func(string)) {
				e.At(2, sigs[0].Fire)
			},
		},
		{
			name:    "signal-wait-callbacks-first",
			signals: 2,
			actors: [][]actorStep{
				{wait(0), fire(1), sleep(0)},
				{wait(1), sleep(1)},
				{wait(0), wait(1)},
			},
			setup: func(e *Engine, sigs []*Signal, log func(string)) {
				// Callbacks registered before any waiter: Fire still queues
				// the waiters before it runs them, and a callback that wakes
				// more work queues it behind the waiters.
				sigs[0].OnFire(func() { log("cb0") })
				sigs[0].OnFire(func() { e.After(0, func() { log("cb0.ev") }) })
				sigs[1].OnFire(func() { log("cb1") })
				e.At(3, sigs[0].Fire)
			},
		},
		{
			name:    "already-fired",
			signals: 1,
			actors: [][]actorStep{
				{sleep(1), wait(0), sleep(1)},
				{wait(0), wait(0)},
				{sleep(0), wait(0), sleep(0)},
			},
			setup: func(e *Engine, sigs []*Signal, _ func(string)) {
				e.At(0.5, sigs[0].Fire)
			},
		},
		{
			name:     "resource-queue",
			capacity: 1,
			actors: [][]actorStep{
				{acquire, sleep(2), release, acquire, sleep(1), release},
				{acquire, sleep(1), release},
				{sleep(1), acquire, sleep(0), release},
				{sleep(1), acquire, sleep(3), release, sleep(0), acquire, release},
				{acquire, release},
			},
		},
		{
			name:     "resource-capacity-two",
			capacity: 2,
			actors: [][]actorStep{
				{acquire, sleep(2), release},
				{acquire, sleep(1), release, acquire, sleep(1), release},
				{acquire, sleep(1), release},
				{sleep(1), acquire, sleep(1), release},
			},
		},
	}
	modes := []struct {
		name   string
		asCont func(int) bool
	}{
		{"all-continuations", func(int) bool { return true }},
		{"interleaved", func(i int) bool { return i%2 == 1 }},
	}
	for _, sc := range scenarios {
		want, wantCounts := runScenario(sc, func(int) bool { return false })
		for _, m := range modes {
			t.Run(sc.name+"/"+m.name, func(t *testing.T) {
				got, gotCounts := runScenario(sc, m.asCont)
				if strings.Join(got, " ") != strings.Join(want, " ") {
					t.Errorf("trace differs\n got: %v\nwant: %v", got, want)
				}
				if gotCounts.Scheduled != wantCounts.Scheduled || gotCounts.Executed != wantCounts.Executed ||
					gotCounts.PeakQueue != wantCounts.PeakQueue {
					t.Errorf("counts %+v, want %+v (Spawned aside)", gotCounts, wantCounts)
				}
			})
		}
	}
}

// TestContinuationDeadlockDetected: a continuation parked on a signal that
// never fires, or queued on a resource that is never released, makes Run
// panic exactly as a parked process does.
func TestContinuationDeadlockDetected(t *testing.T) {
	cases := map[string]func(e *Engine){
		"signal": func(e *Engine) {
			s := NewSignal(e, "never")
			e.Go(func() { s.Then(func() {}) })
		},
		"resource": func(e *Engine) {
			r := NewResource(e, "held", 1)
			e.Go(func() { r.AcquireThen(func() {}) }) // never releases
			e.SleepThen(1, func() { r.AcquireThen(func() { r.Release() }) })
		},
	}
	for name, setup := range cases {
		t.Run(name, func(t *testing.T) {
			e := NewEngine()
			setup(e)
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("deadlocked run did not panic")
				}
				if !strings.Contains(fmt.Sprint(r), "1 continuation(s)") {
					t.Errorf("panic %q does not report the parked continuation", r)
				}
			}()
			e.Run()
		})
	}
}

// TestContinuationWokenIsNotDeadlocked: continuations that park and are then
// woken leave nothing behind, and Go never runs its function inline.
func TestContinuationWokenIsNotDeadlocked(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e, "s")
	r := NewResource(e, "r", 1)
	ran := false
	e.Go(func() {
		r.AcquireThen(func() {
			s.Then(func() { e.SleepThen(1, r.Release) })
		})
		r.AcquireThen(func() { ran = true; r.Release() })
	})
	if ran {
		t.Fatal("Go ran its function inline")
	}
	e.At(2, s.Fire)
	if end := e.Run(); end != 3 || !ran {
		t.Errorf("run ended at %g (ran=%v), want 3 (true)", end, ran)
	}
	if c := e.Counts(); c.Spawned != 0 {
		t.Errorf("continuations counted as spawned processes: %+v", c)
	}
}

func TestSleepThenNegativePanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("negative SleepThen did not panic")
		}
	}()
	e.SleepThen(-1, func() {})
}
