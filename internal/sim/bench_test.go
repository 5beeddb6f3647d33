package sim

import "testing"

func BenchmarkEventThroughput(b *testing.B) {
	e := NewEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(1, func() {})
	}
	e.Run()
}

func BenchmarkProcSwitch(b *testing.B) {
	e := NewEngine()
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkTaskSwitch is BenchmarkProcSwitch for a continuation chain: one
// SleepThen per iteration, no goroutine handoff.
func BenchmarkTaskSwitch(b *testing.B) {
	e := NewEngine()
	n := 0
	var step func()
	step = func() {
		if n < b.N {
			n++
			e.SleepThen(1, step)
		}
	}
	e.Go(step)
	b.ResetTimer()
	e.Run()
}
