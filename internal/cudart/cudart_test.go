package cudart

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/nodeaware/stencil/internal/machine"
	"github.com/nodeaware/stencil/internal/sim"
)

func newRT(nodes int, real bool) (*sim.Engine, *Runtime) {
	e := sim.NewEngine()
	m := machine.NewSummit(e, nodes)
	return e, NewRuntime(m, real)
}

func almostEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestDeviceNumbering(t *testing.T) {
	_, rt := newRT(2, false)
	if len(rt.Devices) != 12 {
		t.Fatalf("devices = %d, want 12", len(rt.Devices))
	}
	d := rt.DeviceAt(1, 2)
	if d.ID != 8 || d.Node != 1 || d.Local != 2 {
		t.Errorf("DeviceAt(1,2) = id %d node %d local %d", d.ID, d.Node, d.Local)
	}
}

// Stream names are built on first read, and streams and buffers come from
// slabs: names must read as they always have, and every allocation across
// several slab chunks must be its own object.
func TestStreamNamesAndSlabs(t *testing.T) {
	_, rt := newRT(2, true)
	d := rt.DeviceAt(1, 2)
	for _, c := range []struct {
		s    *Stream
		want string
	}{
		{d.DefaultStream(), "d8.default"},
		{d.NewStream("probe"), "d8.probe"},
		{d.NewStreamNum("p", 1234, ".send"), "d8.p1234.send"},
		{d.NewStreamNum("sub", 0, ".kernel"), "d8.sub0.kernel"},
	} {
		if got := c.s.Name(); got != c.want {
			t.Errorf("stream name %q, want %q", got, c.want)
		}
	}
	var bufs []*Buffer
	for i := 0; i < 3000; i++ {
		if i%2 == 0 {
			bufs = append(bufs, d.Malloc(int64(i+1)))
		} else {
			bufs = append(bufs, rt.MallocHost(1, 0, int64(i+1)))
		}
	}
	seen := map[*Buffer]bool{}
	for i, b := range bufs {
		if seen[b] || b.Size() != int64(i+1) || len(b.Data()) != i+1 || b.Host() != (i%2 == 1) {
			t.Fatalf("buffer %d: shared %v, size %d, %d data bytes, host %v", i, seen[b], b.Size(), len(b.Data()), b.Host())
		}
		seen[b] = true
	}
	if n := len(d.Streams()); n != 4 {
		t.Errorf("device has %d streams, want 4", n)
	}
}

func TestPeerAccess(t *testing.T) {
	_, rt := newRT(2, false)
	a, b := rt.DeviceAt(0, 0), rt.DeviceAt(0, 5)
	remote := rt.DeviceAt(1, 0)
	if !a.CanAccessPeer(b) {
		t.Error("same-node devices should be peer-capable")
	}
	if a.CanAccessPeer(remote) {
		t.Error("cross-node devices must not be peer-capable")
	}
	if a.CanAccessPeer(a) {
		t.Error("a device is not its own peer")
	}
	if err := a.EnablePeerAccess(b); err != nil {
		t.Fatalf("EnablePeerAccess: %v", err)
	}
	if !a.PeerEnabled(b) {
		t.Error("PeerEnabled false after enable")
	}
	if b.PeerEnabled(a) {
		t.Error("peer access must be directional")
	}
	if err := a.EnablePeerAccess(remote); err == nil {
		t.Error("enabling cross-node peer access should fail")
	}
}

func TestKernelDuration(t *testing.T) {
	e, rt := newRT(1, false)
	d := rt.Devices[0]
	s := d.NewStream("k")
	done := s.Kernel("pack", 250e6, 250*machine.GB, nil) // 1 ms of work
	e.Run()
	want := rt.M.Params.KernelLaunch + 1e-3
	if got := done.FiredAt(); !almostEq(got, want) {
		t.Errorf("kernel completed at %g, want %g", got, want)
	}
}

func TestStreamOrdering(t *testing.T) {
	e, rt := newRT(1, false)
	s := rt.Devices[0].NewStream("s")
	var order []string
	s.Kernel("a", 0, 0, func() { order = append(order, "a") })
	s.Kernel("b", 0, 0, func() { order = append(order, "b") })
	s.Kernel("c", 0, 0, func() { order = append(order, "c") })
	e.Run()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Errorf("stream order = %v", order)
	}
}

func TestStreamsOverlap(t *testing.T) {
	e, rt := newRT(1, false)
	d := rt.Devices[0]
	s1 := d.NewStream("s1")
	s2 := d.NewStream("s2")
	a := s1.Kernel("a", 250e6, 250*machine.GB, nil)
	b := s2.Kernel("b", 250e6, 250*machine.GB, nil)
	e.Run()
	// Separate streams run concurrently: both finish at ~the same time.
	if !almostEq(a.FiredAt(), b.FiredAt()) {
		t.Errorf("independent streams serialized: %g vs %g", a.FiredAt(), b.FiredAt())
	}
}

func TestMemcpyPeerIntraTriadTime(t *testing.T) {
	e, rt := newRT(1, false)
	src := rt.DeviceAt(0, 0).Malloc(46e6)
	dst := rt.DeviceAt(0, 1).Malloc(46e6)
	s := rt.DeviceAt(0, 0).NewStream("cp")
	done := s.MemcpyPeerAsync("cp", dst, 0, src, 0, 46e6)
	e.Run()
	// 46 MB over 46 GB/s NVLink = 1 ms.
	if got := done.FiredAt(); !almostEq(got, 1e-3) {
		t.Errorf("peer copy completed at %g, want 1e-3", got)
	}
}

func TestMemcpyPeerCrossSocketSlower(t *testing.T) {
	e, rt := newRT(1, false)
	bytes := int64(58e6)
	src := rt.DeviceAt(0, 0).Malloc(bytes)
	dst := rt.DeviceAt(0, 3).Malloc(bytes)
	s := rt.DeviceAt(0, 0).NewStream("cp")
	done := s.MemcpyPeerAsync("cp", dst, 0, src, 0, bytes)
	e.Run()
	// Bottleneck is NVLink up/down at 46 GB/s: 58e6/46e9 ≈ 1.26 ms.
	want := 58e6 / (46 * machine.GB)
	if got := done.FiredAt(); !almostEq(got, want) {
		t.Errorf("cross-socket copy at %g, want %g", got, want)
	}
}

func TestMemcpyMovesRealBytes(t *testing.T) {
	e, rt := newRT(1, true)
	src := rt.DeviceAt(0, 0).Malloc(64)
	dst := rt.DeviceAt(0, 1).Malloc(64)
	for i := range src.Data() {
		src.Data()[i] = byte(i * 3)
	}
	s := rt.DeviceAt(0, 0).NewStream("cp")
	s.MemcpyPeerAsync("cp", dst, 16, src, 0, 32)
	e.Run()
	for i := 0; i < 32; i++ {
		if dst.Data()[16+i] != byte(i*3) {
			t.Fatalf("byte %d not copied: got %d", i, dst.Data()[16+i])
		}
	}
	if dst.Data()[0] != 0 || dst.Data()[48] != 0 {
		t.Error("copy clobbered bytes outside target range")
	}
}

func TestMemcpyD2HAndH2D(t *testing.T) {
	e, rt := newRT(1, true)
	dev := rt.DeviceAt(0, 0)
	dbuf := dev.Malloc(128)
	hbuf := rt.MallocHost(0, 0, 128)
	for i := range dbuf.Data() {
		dbuf.Data()[i] = byte(200 - i)
	}
	s := dev.NewStream("st")
	s.MemcpyAsync("d2h", hbuf, 0, dbuf, 0, 128)
	e.Run()
	for i := 0; i < 128; i++ {
		if hbuf.Data()[i] != byte(200-i) {
			t.Fatalf("D2H byte %d mismatch", i)
		}
	}
	// Round-trip back to a second device buffer.
	e2 := sim.NewEngine()
	m2 := machine.NewSummit(e2, 1)
	rt2 := NewRuntime(m2, true)
	d2 := rt2.DeviceAt(0, 0)
	h2 := rt2.MallocHost(0, 0, 64)
	dev2 := d2.Malloc(64)
	for i := range h2.Data() {
		h2.Data()[i] = byte(i ^ 0x5a)
	}
	st := d2.NewStream("st")
	st.MemcpyAsync("h2d", dev2, 0, h2, 0, 64)
	e2.Run()
	for i := 0; i < 64; i++ {
		if dev2.Data()[i] != byte(i^0x5a) {
			t.Fatalf("H2D byte %d mismatch", i)
		}
	}
}

func TestMemcpyRangePanics(t *testing.T) {
	e, rt := newRT(1, false)
	_ = e
	src := rt.DeviceAt(0, 0).Malloc(64)
	dst := rt.DeviceAt(0, 1).Malloc(64)
	s := rt.DeviceAt(0, 0).NewStream("cp")
	defer func() {
		if recover() == nil {
			t.Error("out-of-range copy did not panic")
		}
	}()
	s.MemcpyPeerAsync("bad", dst, 32, src, 0, 64)
}

func TestMemcpyAcrossNodesPanics(t *testing.T) {
	_, rt := newRT(2, false)
	src := rt.DeviceAt(0, 0).Malloc(64)
	dst := rt.DeviceAt(1, 0).Malloc(64)
	s := rt.DeviceAt(0, 0).NewStream("cp")
	defer func() {
		if recover() == nil {
			t.Error("cross-node peer copy did not panic")
		}
	}()
	s.MemcpyPeerAsync("bad", dst, 0, src, 0, 64)
}

func TestEventRecordAndWaitEvent(t *testing.T) {
	e, rt := newRT(1, false)
	d := rt.Devices[0]
	s1 := d.NewStream("s1")
	s2 := d.NewStream("s2")
	var order []string
	s1.Kernel("long", 460e6, 46*machine.GB, func() { order = append(order, "long") }) // 10 ms
	ev := s1.EventRecord()
	s2.WaitEvent(ev)
	s2.Kernel("after", 0, 0, func() { order = append(order, "after") })
	e.Run()
	if len(order) != 2 || order[0] != "long" || order[1] != "after" {
		t.Errorf("event ordering violated: %v", order)
	}
}

func TestEventRecordOnIdleStreamFires(t *testing.T) {
	_, rt := newRT(1, false)
	s := rt.Devices[0].NewStream("idle")
	ev := s.EventRecord()
	if !ev.Fired() {
		t.Error("event on idle stream should be complete immediately")
	}
}

func TestStreamSynchronize(t *testing.T) {
	e, rt := newRT(1, false)
	d := rt.Devices[0]
	s := d.NewStream("s")
	s.Kernel("w", 460e6, 46*machine.GB, nil) // 10 ms
	var resumed sim.Time
	e.Spawn("host", func(p *sim.Proc) {
		s.Synchronize(p)
		resumed = p.Now()
	})
	e.Run()
	if resumed < 0.0099 {
		t.Errorf("Synchronize returned at %g, before kernel finished", resumed)
	}
	if !s.Query() {
		t.Error("Query false after synchronize")
	}
}

func TestDeviceSynchronizeCoversAllStreams(t *testing.T) {
	e, rt := newRT(1, false)
	d := rt.Devices[0]
	s1 := d.NewStream("a")
	s2 := d.NewStream("b")
	s1.Kernel("k1", 230e6, 46*machine.GB, nil) // 5 ms
	s2.Kernel("k2", 460e6, 46*machine.GB, nil) // 10 ms
	var resumed sim.Time
	e.Go(func() {
		d.SynchronizeThen(func() { resumed = e.Now() })
	})
	e.Run()
	if resumed < 0.0099 {
		t.Errorf("device sync returned at %g before slowest stream", resumed)
	}
}

func TestIpcHandleRoundTrip(t *testing.T) {
	e, rt := newRT(1, true)
	buf := rt.DeviceAt(0, 0).Malloc(32)
	var opened *Buffer
	var cost sim.Time
	e.Spawn("owner", func(p *sim.Proc) {
		h := rt.IpcGetMemHandle(p, buf)
		opened = rt.IpcOpenMemHandle(p, h)
		cost = p.Now()
	})
	e.Run()
	if opened != buf {
		t.Error("opened handle does not alias original buffer")
	}
	want := rt.M.Params.IpcGetHandle + rt.M.Params.IpcOpenHandle
	if !almostEq(cost, want) {
		t.Errorf("ipc cost %g, want %g", cost, want)
	}
}

func TestTraceHook(t *testing.T) {
	e, rt := newRT(1, false)
	var recs []OpRecord
	rt.OnOp = func(r OpRecord) { recs = append(recs, r) }
	src := rt.DeviceAt(0, 0).Malloc(46e6)
	dst := rt.DeviceAt(0, 1).Malloc(46e6)
	s := rt.DeviceAt(0, 0).NewStream("s")
	s.Kernel("pack", 46e6, 250*machine.GB, nil)
	s.MemcpyPeerAsync("cp", dst, 0, src, 0, 46e6)
	e.Run()
	if len(recs) != 2 {
		t.Fatalf("trace records = %d, want 2", len(recs))
	}
	if recs[0].Kind != OpKernel || recs[1].Kind != OpMemcpyD2D {
		t.Errorf("record kinds = %v %v", recs[0].Kind, recs[1].Kind)
	}
	if recs[1].Start < recs[0].End {
		t.Error("memcpy started before kernel finished on same stream")
	}
	if OpKernel.String() != "kernel" || OpMemcpyH2D.String() != "memcpyH2D" {
		t.Error("OpKind String mismatch")
	}
}

func TestVirtualModeNoData(t *testing.T) {
	_, rt := newRT(1, false)
	buf := rt.DeviceAt(0, 0).Malloc(1 << 30) // 1 GiB costs nothing in time-only mode
	if buf.Data() != nil {
		t.Error("time-only buffer has backing data")
	}
	if buf.Size() != 1<<30 {
		t.Error("size not recorded")
	}
}

// Property: a chain of K kernels of random sizes on one stream completes at
// exactly the sum of their durations.
func TestStreamSerializationProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e, rt := newRT(1, false)
		s := rt.Devices[0].NewStream("s")
		k := int(n%8) + 1
		var total sim.Time
		var last *sim.Signal
		for i := 0; i < k; i++ {
			bytes := int64(rng.Intn(1e8) + 1)
			last = s.Kernel("k", bytes, 250*machine.GB, nil)
			total += rt.M.Params.KernelLaunch + float64(bytes)/(250*machine.GB)
		}
		e.Run()
		return almostEq(last.FiredAt(), total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: concurrent copies between disjoint triad pairs never slow each
// other down (dedicated NVLinks).
func TestDisjointPairsIndependentProperty(t *testing.T) {
	f := func(b1, b2 uint32) bool {
		bytes1 := int64(b1%1e8) + 1
		bytes2 := int64(b2%1e8) + 1
		e, rt := newRT(1, false)
		s1 := rt.DeviceAt(0, 0).NewStream("s1")
		s2 := rt.DeviceAt(0, 3).NewStream("s2")
		d1 := s1.MemcpyPeerAsync("a", rt.DeviceAt(0, 1).Malloc(bytes1), 0, rt.DeviceAt(0, 0).Malloc(bytes1), 0, bytes1)
		d2 := s2.MemcpyPeerAsync("b", rt.DeviceAt(0, 4).Malloc(bytes2), 0, rt.DeviceAt(0, 3).Malloc(bytes2), 0, bytes2)
		e.Run()
		w1 := float64(bytes1) / (46 * machine.GB)
		w2 := float64(bytes2) / (46 * machine.GB)
		return almostEq(d1.FiredAt(), w1) && almostEq(d2.FiredAt(), w2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestDeviceFail: a dead device rejects new resource acquisition (fail-stop
// detection surface) while previously created streams keep executing — the
// zombie window the recovery layer's rollback cleans up.
func TestDeviceFail(t *testing.T) {
	e, rt := newRT(1, false)
	d := rt.DeviceAt(0, 0)
	s := d.NewStream("pre")
	d.Fail()
	if !d.Dead() {
		t.Fatal("Dead() false after Fail")
	}
	for name, fn := range map[string]func(){
		"Malloc":    func() { d.Malloc(64) },
		"NewStream": func() { d.NewStream("post") },
		"EnablePeerAccess": func() {
			_ = d.EnablePeerAccess(rt.DeviceAt(0, 1))
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s succeeded on a dead device", name)
				}
			}()
			fn()
		}()
	}
	// Peer access onto a dead device is equally rejected.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("EnablePeerAccess onto a dead device succeeded")
			}
		}()
		_ = rt.DeviceAt(0, 1).EnablePeerAccess(d)
	}()
	// The zombie window: work on a pre-existing stream still completes in
	// virtual time.
	fired := false
	s.Kernel("zombie", 1<<20, 100e9, func() { fired = true })
	e.Run()
	if !fired {
		t.Error("pre-existing stream stopped executing after Fail")
	}
}

// A stream forgets its tail once the op behind it completes, whatever the
// op kind, so no finished op record stays reachable through a stream.
func TestFinishedOpsNotRetained(t *testing.T) {
	e, rt := newRT(1, false)
	d := rt.DeviceAt(0, 0)
	s, other := d.NewStream("s"), d.NewStream("other")
	host, dev := rt.MallocHost(0, 0, 1<<10), d.Malloc(1<<10)
	k := s.Kernel("k", 1<<10, 1e9, nil)
	cp := s.MemcpyAsync("d2h", host, 0, dev, 0, 1<<10, k)
	other.WaitEvent(cp)
	other.Enqueue(func(done *sim.Signal) { e.After(1e-6, done.Fire) })
	e.Run()
	for _, st := range d.Streams() {
		if st.tail != nil || !st.Query() {
			t.Errorf("stream %s still holds its finished tail", st.Name())
		}
	}
}
