package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// logHandler is a Handler that appends its name to a shared log.
type logHandler struct {
	log  *[]string
	name string
}

func (h *logHandler) Handle() { *h.log = append(*h.log, h.name) }

// The inline first waiter and first callback must not change what a signal
// does: waiters (processes and continuations, mixed) are queued in arrival
// order, then callbacks (closures and Handlers, mixed) run in registration
// order, for any number of each.
func TestSignalFireOrder(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 5, 40} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			e := NewEngine()
			s := NewSignal(e, "s")
			var log, wantW, wantC []string
			// Registrations run from the ready queue in index order; kinds
			// rotate so every count mixes all four forms.
			for i := 0; i < n; i++ {
				name := fmt.Sprint(i)
				switch i % 4 {
				case 0:
					wantW = append(wantW, "w"+name)
					e.Spawn("p"+name, func(p *Proc) {
						s.Wait(p)
						log = append(log, "w"+name)
					})
				case 1:
					wantC = append(wantC, "c"+name)
					e.Go(func() { s.OnFire(func() { log = append(log, "c"+name) }) })
				case 2:
					wantW = append(wantW, "w"+name)
					e.Go(func() { s.Then(func() { log = append(log, "w"+name) }) })
				case 3:
					wantC = append(wantC, "c"+name)
					e.Go(func() { s.Notify(&logHandler{&log, "c" + name}) })
				}
			}
			e.At(1, s.Fire)
			e.Run()
			// Callbacks run inside Fire; the queued waiters after it.
			if want := append(wantC, wantW...); !slices.Equal(log, want) {
				t.Errorf("fire order %v, want %v", log, want)
			}
			if s.w0 != nil || s.cb0 != nil || s.more != nil {
				t.Error("a fired signal still holds waiters or callbacks")
			}
		})
	}
}

// Anything registered on a signal that has fired runs at once, including
// registrations made by the signal's own callbacks while Fire is running:
// they run inline, before the callbacks registered after them.
func TestSignalRegisterDuringFire(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e, "s")
	var log []string
	s.OnFire(func() {
		log = append(log, "a")
		s.OnFire(func() { log = append(log, "a.onfire") })
		s.Notify(&logHandler{&log, "a.notify"})
		s.Then(func() { log = append(log, "a.then") })
		if !s.Fired() || s.FiredAt() != 2 {
			t.Errorf("inside Fire: fired %v", s.Fired())
		}
	})
	s.OnFire(func() { log = append(log, "b") })
	e.At(2, s.Fire)
	e.Run()
	want := []string{"a", "a.onfire", "a.notify", "a.then", "b"}
	if !slices.Equal(log, want) {
		t.Errorf("order %v, want %v", log, want)
	}
	log = nil
	s.Then(func() { log = append(log, "late.then") })
	s.Notify(&logHandler{&log, "late.notify"})
	if want := []string{"late.then", "late.notify"}; !slices.Equal(log, want) {
		t.Errorf("after fire: %v, want %v", log, want)
	}
}

// Forward fires its target from the source's callback list, in the
// source's registration order.
func TestSignalForward(t *testing.T) {
	e := NewEngine()
	src, dst := NewSignal(e, "src"), NewSignal(e, "dst")
	var log []string
	src.OnFire(func() { log = append(log, "first") })
	src.Forward(dst)
	dst.OnFire(func() { log = append(log, "dst") })
	src.OnFire(func() { log = append(log, "last") })
	e.At(3, src.Fire)
	e.Run()
	if want := []string{"first", "dst", "last"}; !slices.Equal(log, want) {
		t.Errorf("order %v, want %v", log, want)
	}
	if !dst.Fired() || dst.FiredAt() != 3 {
		t.Error("forwarded signal did not fire with its source")
	}
}

func TestSignalInitDoubleFirePanics(t *testing.T) {
	e := NewEngine()
	var s Signal
	s.Init(e, "embedded")
	s.Fire()
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "embedded") {
			t.Errorf("second fire: recovered %v, want a panic naming the signal", r)
		}
	}()
	s.Fire()
}

// An embedded signal with one callback and one waiter allocates nothing for
// its lists.
func TestSignalInlineSlotsAllocateNothing(t *testing.T) {
	e := NewEngine()
	var log []string
	h := &logHandler{&log, "h"}
	next := func() {}
	var s Signal
	// Warm the engine's ready queue.
	s.Init(e, "s")
	s.Then(next)
	s.Fire()
	e.Run()
	allocs := testing.AllocsPerRun(100, func() {
		s.Init(e, "s")
		s.Notify(h)
		s.Then(next)
		s.Fire()
		e.Run()
	})
	if allocs != 0 {
		t.Errorf("one waiter and one callback: %.1f allocations, want 0", allocs)
	}
}

// An owned event scheduled through Reschedule takes exactly the sequence
// numbers and Counts that At would: two engines scheduling the same
// callbacks each way fire them in the same order with the same tallies.
func TestOwnedEventMatchesAt(t *testing.T) {
	run := func(owned bool) ([]string, Counts) {
		e := NewEngine()
		var log []string
		evs := make([]Event, 4)
		for i, d := range []Time{2, 1, 2, 0} {
			name := fmt.Sprint(i)
			if owned {
				evs[i].Init(e, &logHandler{&log, name})
				if evs[i].Scheduled() {
					t.Error("an initialized event reports scheduled")
				}
				e.Reschedule(&evs[i], d)
				if !evs[i].Scheduled() {
					t.Error("a rescheduled event does not report scheduled")
				}
			} else {
				e.After(d, func() { log = append(log, name) })
			}
		}
		e.Run()
		if owned && evs[0].Scheduled() {
			t.Error("a fired event reports scheduled")
		}
		return log, e.Counts()
	}
	atLog, atCounts := run(false)
	ownLog, ownCounts := run(true)
	if !slices.Equal(atLog, ownLog) || atCounts != ownCounts {
		t.Errorf("owned events %v %+v, At events %v %+v", ownLog, ownCounts, atLog, atCounts)
	}
}
