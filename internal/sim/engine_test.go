package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineEmptyRun(t *testing.T) {
	e := NewEngine()
	if got := e.Run(); got != 0 {
		t.Fatalf("empty run ended at %g, want 0", got)
	}
}

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(2.0, func() { order = append(order, 2) })
	e.At(1.0, func() { order = append(order, 1) })
	e.At(3.0, func() { order = append(order, 3) })
	end := e.Run()
	if end != 3.0 {
		t.Errorf("end time = %g, want 3", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEventFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(1.0, func() { order = append(order, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("same-time events fired out of insertion order: %v", order)
		}
	}
}

func TestEventCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(1.0, func() { fired = true })
	e.At(0.5, func() { ev.Cancel() })
	e.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Error("Cancelled() = false after Cancel")
	}
}

func TestPastEventPanics(t *testing.T) {
	e := NewEngine()
	e.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(1, func() {})
	})
	e.Run()
}

func TestNegativeAfterPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("negative After did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var wake Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(2.5)
		wake = p.Now()
	})
	e.Run()
	if wake != 2.5 {
		t.Errorf("woke at %g, want 2.5", wake)
	}
}

func TestProcSequentialSleeps(t *testing.T) {
	e := NewEngine()
	var times []Time
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Sleep(1)
			times = append(times, p.Now())
		}
	})
	e.Run()
	want := []Time{1, 2, 3, 4}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestTwoProcsInterleave(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Spawn("a", func(p *Proc) {
		p.Sleep(1)
		order = append(order, "a1")
		p.Sleep(2) // wakes at 3
		order = append(order, "a3")
	})
	e.Spawn("b", func(p *Proc) {
		p.Sleep(2)
		order = append(order, "b2")
	})
	e.Run()
	want := []string{"a1", "b2", "a3"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSignalWaitBeforeFire(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e, "s")
	var woke Time
	e.Spawn("waiter", func(p *Proc) {
		s.Wait(p)
		woke = p.Now()
	})
	e.At(4, func() { s.Fire() })
	e.Run()
	if woke != 4 {
		t.Errorf("waiter woke at %g, want 4", woke)
	}
	if s.FiredAt() != 4 {
		t.Errorf("FiredAt = %g, want 4", s.FiredAt())
	}
}

func TestSignalWaitAfterFire(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e, "s")
	var woke Time
	e.At(1, func() { s.Fire() })
	e.Spawn("late", func(p *Proc) {
		p.Sleep(5)
		s.Wait(p) // already fired: returns immediately
		woke = p.Now()
	})
	e.Run()
	if woke != 5 {
		t.Errorf("late waiter woke at %g, want 5", woke)
	}
}

func TestSignalDoubleFirePanics(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e, "s")
	e.At(1, func() { s.Fire() })
	e.At(2, func() {
		defer func() {
			if recover() == nil {
				t.Error("double fire did not panic")
			}
		}()
		s.Fire()
	})
	e.Run()
}

func TestSignalOnFire(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e, "s")
	var at Time = -1
	s.OnFire(func() { at = e.Now() })
	e.At(3, func() { s.Fire() })
	e.Run()
	if at != 3 {
		t.Errorf("callback at %g, want 3", at)
	}
	// Registering after fire runs immediately.
	ran := false
	s.OnFire(func() { ran = true })
	if !ran {
		t.Error("OnFire after fire did not run immediately")
	}
}

func TestWaitAll(t *testing.T) {
	e := NewEngine()
	a := NewSignal(e, "a")
	b := NewSignal(e, "b")
	var woke Time
	e.Spawn("w", func(p *Proc) {
		WaitAll(p, a, b)
		woke = p.Now()
	})
	e.At(1, func() { a.Fire() })
	e.At(7, func() { b.Fire() })
	e.Run()
	if woke != 7 {
		t.Errorf("WaitAll woke at %g, want 7", woke)
	}
}

func TestResourceSerializes(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "engine", 1)
	var finish []Time
	for i := 0; i < 3; i++ {
		e.Spawn("user", func(p *Proc) {
			r.Acquire(p)
			p.Sleep(1)
			r.Release()
			finish = append(finish, p.Now())
		})
	}
	e.Run()
	want := []Time{1, 2, 3}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "dual", 2)
	var finish []Time
	for i := 0; i < 4; i++ {
		e.Spawn("user", func(p *Proc) {
			r.Acquire(p)
			p.Sleep(1)
			r.Release()
			finish = append(finish, p.Now())
		})
	}
	e.Run()
	want := []Time{1, 1, 2, 2}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

func TestResourceFIFO(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "fifo", 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Spawn("user", func(p *Proc) {
			p.Sleep(Time(i) * 0.001) // arrive in index order
			r.Acquire(p)
			p.Sleep(1)
			order = append(order, i)
			r.Release()
		})
	}
	e.Run()
	for i := 0; i < 5; i++ {
		if order[i] != i {
			t.Fatalf("service order = %v, want FIFO", order)
		}
	}
}

func TestReleaseIdlePanics(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "r", 1)
	defer func() {
		if recover() == nil {
			t.Error("release of idle resource did not panic")
		}
	}()
	r.Release()
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e, "never")
	e.Spawn("stuck", func(p *Proc) { s.Wait(p) })
	defer func() {
		if recover() == nil {
			t.Error("deadlocked run did not panic")
		}
	}()
	e.Run()
}

// Property: N events scheduled at random times fire in nondecreasing time
// order, and the run ends at the max time.
func TestEventOrderProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		count := int(n%50) + 1
		times := make([]Time, count)
		var fired []Time
		for i := 0; i < count; i++ {
			times[i] = rng.Float64() * 100
			tt := times[i]
			e.At(tt, func() { fired = append(fired, tt) })
		}
		end := e.Run()
		if len(fired) != count {
			return false
		}
		if !sort.Float64sAreSorted(fired) {
			return false
		}
		maxT := times[0]
		for _, v := range times {
			if v > maxT {
				maxT = v
			}
		}
		return end == maxT
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a chain of processes each sleeping random durations accumulates
// exactly the sum of the durations.
func TestSleepAccumulationProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		count := int(n%20) + 1
		var total Time
		durs := make([]Time, count)
		for i := range durs {
			durs[i] = rng.Float64()
			total += durs[i]
		}
		var end Time
		e.Spawn("chain", func(p *Proc) {
			for _, d := range durs {
				p.Sleep(d)
			}
			end = p.Now()
		})
		e.Run()
		return end == total // exact: same FP additions in same order
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Determinism: the same random scenario run twice produces the same trace.
func TestDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var trace []Time
		r := NewResource(e, "r", 2)
		for i := 0; i < 20; i++ {
			start := rng.Float64() * 10
			work := rng.Float64()
			e.Spawn("p", func(p *Proc) {
				p.Sleep(start)
				r.Acquire(p)
				p.Sleep(work)
				r.Release()
				trace = append(trace, p.Now())
			})
		}
		e.Run()
		return trace
	}
	a := run(42)
	b := run(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %g vs %g", i, a[i], b[i])
		}
	}
}
