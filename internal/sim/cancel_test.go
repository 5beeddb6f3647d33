package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestCancelRemovesFromHeap(t *testing.T) {
	e := NewEngine()
	var evs []*Event
	for i := 0; i < 100; i++ {
		evs = append(evs, e.At(float64(i)+1, func() {}))
	}
	if len(e.queue) != 100 {
		t.Fatalf("queue = %d", len(e.queue))
	}
	for i := 0; i < 100; i += 2 {
		evs[i].Cancel()
	}
	// Eager removal keeps the heap tight.
	if len(e.queue) != 50 {
		t.Errorf("queue after cancels = %d, want 50", len(e.queue))
	}
	e.Run()
}

func TestCancelDuringRun(t *testing.T) {
	e := NewEngine()
	var fired []int
	var ev3 *Event
	e.At(1, func() { fired = append(fired, 1); ev3.Cancel() })
	e.At(2, func() { fired = append(fired, 2) })
	ev3 = e.At(3, func() { fired = append(fired, 3) })
	e.Run()
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 2 {
		t.Errorf("fired = %v, want [1 2]", fired)
	}
}

func TestDoubleCancelHarmless(t *testing.T) {
	e := NewEngine()
	ev := e.At(1, func() { t.Error("cancelled event fired") })
	ev.Cancel()
	ev.Cancel()
	e.Run()
}

func TestCancelAfterFireHarmless(t *testing.T) {
	e := NewEngine()
	var ev *Event
	ev = e.At(1, func() {})
	e.At(2, func() { ev.Cancel() })
	e.Run()
}

// Property: with random schedule/cancel/reschedule interleavings, exactly
// the non-cancelled events fire, in time order, and the heap ends empty.
func TestCancelRescheduleProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		type rec struct {
			ev        *Event
			when      float64
			cancelled bool
		}
		var recs []*rec
		var fired []float64
		n := rng.Intn(40) + 5
		for i := 0; i < n; i++ {
			when := rng.Float64() * 100
			r := &rec{when: when}
			r.ev = e.At(when, func() { fired = append(fired, r.when) })
			recs = append(recs, r)
		}
		// Cancel a random subset before running.
		for _, r := range recs {
			if rng.Intn(3) == 0 {
				r.ev.Cancel()
				r.cancelled = true
			}
		}
		e.Run()
		var want []float64
		for _, r := range recs {
			if !r.cancelled {
				want = append(want, r.when)
			}
		}
		sort.Float64s(want)
		if len(fired) != len(want) {
			return false
		}
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return len(e.queue) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRunReentryPanics(t *testing.T) {
	e := NewEngine()
	e.At(1, func() {
		defer func() {
			if recover() == nil {
				t.Error("re-entrant Run did not panic")
			}
		}()
		e.Run()
	})
	e.Run()
}
