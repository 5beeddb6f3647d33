// Package cudart is a simulated CUDA runtime for the machine model.
//
// It reproduces the subset of CUDA the paper's library uses: devices, device
// and pinned-host buffers, streams (in-order async op queues), events,
// cudaMemcpyAsync / cudaMemcpyPeerAsync, pack/unpack kernels, peer-access
// enablement, cudaIpc* handles, and device synchronization.
//
// Ops enqueued on a stream execute in issue order in virtual time. Data
// transfers become flows over the machine's links, so concurrent copies
// contend exactly as the hardware's would. Buffers optionally carry real
// backing bytes: an op that moves data performs the actual byte copy at its
// virtual completion time, which lets the test suite verify halo-exchange
// correctness bit-for-bit while large-scale benchmarks run in time-only mode.
package cudart

import (
	"fmt"
	"strconv"

	"github.com/nodeaware/stencil/internal/flownet"
	"github.com/nodeaware/stencil/internal/machine"
	"github.com/nodeaware/stencil/internal/sim"
)

// OpKind classifies a stream operation for tracing.
type OpKind int

const (
	OpKernel OpKind = iota
	OpMemcpyD2D
	OpMemcpyD2H
	OpMemcpyH2D
	OpMemcpyH2H // host-side staging copy (shared-memory or NIC delivery)
	OpRetransmit
	OpReExchange

	// NumOpKinds is the number of OpKind values; glyph tables and other
	// per-kind maps are tested for exhaustiveness against it.
	NumOpKinds
)

func (k OpKind) String() string {
	switch k {
	case OpKernel:
		return "kernel"
	case OpMemcpyD2D:
		return "memcpyD2D"
	case OpMemcpyD2H:
		return "memcpyD2H"
	case OpMemcpyH2D:
		return "memcpyH2D"
	case OpMemcpyH2H:
		return "memcpyH2H"
	case OpRetransmit:
		return "retransmit"
	case OpReExchange:
		return "reexchange"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// OpRecord describes one completed stream operation, for Fig 9-style
// timelines.
type OpRecord struct {
	Kind       OpKind
	Name       string
	Device     int // global device id, -1 for host-only
	Stream     string
	Start, End sim.Time
	Bytes      int64
}

// Runtime is the simulated CUDA runtime for one cluster.
type Runtime struct {
	M        *machine.Machine
	RealData bool // allocate and move real bytes
	Devices  []*Device
	OnOp     func(OpRecord) // optional trace hook

	// Streams and buffer headers live as long as the runtime, and setup
	// makes tens of thousands of them: they come from slabs.
	streams slab[Stream]
	buffers slab[Buffer]
}

// slab hands out pointers into chunked backing arrays, so objects that live
// as long as their owner cost one heap allocation per chunk instead of one
// each. Chunks double from 16 entries up to 1024.
type slab[T any] struct {
	free []T
	size int
}

func (s *slab[T]) next() *T {
	if len(s.free) == 0 {
		s.size = min(max(2*s.size, 16), 1024)
		s.free = make([]T, s.size)
	}
	p := &s.free[0]
	s.free = s.free[1:]
	return p
}

// NewRuntime creates a runtime with one Device per GPU in the machine,
// numbered globally node-major.
func NewRuntime(m *machine.Machine, realData bool) *Runtime {
	rt := &Runtime{M: m, RealData: realData}
	id := 0
	for _, n := range m.Nodes {
		for g := 0; g < n.Config.GPUs(); g++ {
			d := &Device{rt: rt, ID: id, Node: n.ID, Local: g, peers: make(map[int]bool)}
			d.defaultStream = d.newStream("default", -1, "")
			rt.Devices = append(rt.Devices, d)
			id++
		}
	}
	return rt
}

// DeviceAt returns the global device for (node, local GPU).
func (rt *Runtime) DeviceAt(node, local int) *Device {
	n := rt.M.Nodes[node]
	return rt.Devices[node*n.Config.GPUs()+local]
}

// Record feeds an externally produced op record to the trace hook. The MPI
// layer uses it to surface host-side staging copies in the same timeline as
// stream ops.
func (rt *Runtime) Record(r OpRecord) {
	if rt.OnOp != nil {
		rt.OnOp(r)
	}
}

// Device is one simulated GPU.
type Device struct {
	rt            *Runtime
	ID            int // global id
	Node          int
	Local         int // index within node
	peers         map[int]bool
	defaultStream *Stream
	streams       []*Stream
	slow          float64 // straggle factor; 0 means healthy (1x)
	dead          bool    // permanently failed (fail-stop)
}

// Fail marks the device permanently lost (fail-stop). Work already enqueued
// completes in virtual time — the "zombie window" between the physical
// failure and its detection at the next consistency point, mirroring how
// real clusters learn of device death through timeouts — but new
// allocations, streams, and peer enablement panic, so any use of the device
// after the recovery layer has evicted it is a bug that surfaces
// immediately.
func (d *Device) Fail() { d.dead = true }

// Dead reports whether the device has permanently failed.
func (d *Device) Dead() bool { return d.dead }

func (d *Device) checkAlive(op string) {
	if d.dead {
		panic(fmt.Sprintf("cudart: %s on dead device %d", op, d.ID))
	}
}

// SetSlowFactor makes every kernel on the device take factor times as long
// (launch and execution both), modelling a straggling GPU — thermal
// throttling, ECC replay storms, a contending tenant. Factor 1 restores
// nominal speed; factors below 1 are rejected.
func (d *Device) SetSlowFactor(factor float64) {
	if factor < 1 {
		panic(fmt.Sprintf("cudart: slow factor %g < 1 on device %d", factor, d.ID))
	}
	d.slow = factor
}

// SlowFactor returns the device's current straggle factor (1 when healthy).
func (d *Device) SlowFactor() float64 {
	if d.slow == 0 {
		return 1
	}
	return d.slow
}

// DefaultStream returns the device's default stream (used internally by the
// CUDA-aware MPI pathology model).
func (d *Device) DefaultStream() *Stream { return d.defaultStream }

// CanAccessPeer reports whether peer access can be enabled to other: GPUs on
// the same node can be peers (intra-triad over NVLink, cross-socket over the
// SMP bus).
func (d *Device) CanAccessPeer(other *Device) bool {
	return d.Node == other.Node && d != other
}

// EnablePeerAccess enables peer access from d to other (one direction, as in
// CUDA). It returns an error if the devices cannot be peers.
func (d *Device) EnablePeerAccess(other *Device) error {
	d.checkAlive("EnablePeerAccess")
	other.checkAlive("EnablePeerAccess(peer)")
	if !d.CanAccessPeer(other) {
		return fmt.Errorf("cudart: device %d cannot access peer %d", d.ID, other.ID)
	}
	d.peers[other.ID] = true
	return nil
}

// PeerEnabled reports whether EnablePeerAccess(other) has been called.
func (d *Device) PeerEnabled(other *Device) bool { return d.peers[other.ID] }

func (d *Device) newStream(prefix string, num int, suffix string) *Stream {
	s := d.rt.streams.next()
	*s = Stream{dev: d, prefix: prefix, num: num, suffix: suffix}
	d.streams = append(d.streams, s)
	return s
}

// NewStream creates a new asynchronous stream on the device.
func (d *Device) NewStream(name string) *Stream {
	d.checkAlive("NewStream")
	return d.newStream(name, -1, "")
}

// NewStreamNum is NewStream(prefix + strconv.Itoa(num) + suffix), with the
// name built only when something reads it.
func (d *Device) NewStreamNum(prefix string, num int, suffix string) *Stream {
	d.checkAlive("NewStream")
	return d.newStream(prefix, num, suffix)
}

// SynchronizeThen runs next once every op enqueued so far on every stream of
// the device has completed (cudaDeviceSynchronize, for continuation code). It
// waits on the streams that existed at the call in order, reading each
// stream's tail at the moment the wait on the previous one completes, and
// runs next inline if nothing is outstanding.
func (d *Device) SynchronizeThen(next func()) {
	streams := d.streams
	var from func(i int)
	from = func(i int) {
		for ; i < len(streams); i++ {
			if t := streams[i].tail; t != nil && !t.Fired() {
				t.Then(func() { from(i + 1) })
				return
			}
		}
		next()
	}
	from(0)
}

// Malloc allocates a device buffer. Backing bytes are allocated only in
// real-data mode.
func (d *Device) Malloc(size int64) *Buffer {
	d.checkAlive("Malloc")
	b := d.rt.buffers.next()
	*b = Buffer{dev: d, size: size}
	if d.rt.RealData {
		b.data = make([]byte, size)
	}
	return b
}

// MallocHost allocates a pinned host buffer on the given node and socket.
func (rt *Runtime) MallocHost(node, socket int, size int64) *Buffer {
	b := rt.buffers.next()
	*b = Buffer{node: node, socket: socket, size: size, host: true}
	if rt.RealData {
		b.data = make([]byte, size)
	}
	return b
}

// Buffer is a device or pinned-host allocation.
type Buffer struct {
	dev    *Device // nil for host buffers
	host   bool
	node   int // for host buffers
	socket int
	size   int64
	data   []byte // nil in time-only mode
}

// Size returns the allocation size in bytes.
func (b *Buffer) Size() int64 { return b.size }

// Device returns the owning device, or nil for a host buffer.
func (b *Buffer) Device() *Device { return b.dev }

// Host reports whether this is a pinned host buffer.
func (b *Buffer) Host() bool { return b.host }

// Data returns the backing bytes (nil in time-only mode). Simulated "GPU
// kernels" in higher layers use this to perform real pack/unpack/compute.
func (b *Buffer) Data() []byte { return b.data }

// IpcMemHandle is the opaque handle produced by IpcGetMemHandle.
type IpcMemHandle struct{ buf *Buffer }

// IpcGetMemHandle produces an opaque sharable handle for a device buffer
// (cudaIpcGetMemHandle). The cost is charged to the calling process.
func (rt *Runtime) IpcGetMemHandle(p *sim.Proc, b *Buffer) IpcMemHandle {
	if b.dev == nil {
		panic("cudart: IpcGetMemHandle on host buffer")
	}
	p.Sleep(rt.M.Params.IpcGetHandle)
	return IpcMemHandle{buf: b}
}

// IpcOpenMemHandle converts a handle received from another process into a
// buffer valid in the caller's address space (cudaIpcOpenMemHandle). The
// returned buffer aliases the original allocation.
func (rt *Runtime) IpcOpenMemHandle(p *sim.Proc, h IpcMemHandle) *Buffer {
	p.Sleep(rt.M.Params.IpcOpenHandle)
	return h.buf
}

// Stream is an in-order asynchronous operation queue on one device.
type Stream struct {
	dev *Device
	// The name is "d<device id>." + prefix + num + suffix (num left out when
	// negative), built on first read: only traces read it.
	prefix, suffix string
	num            int
	name           string
	tail           *sim.Signal // completion of the most recently enqueued op, nil once it fired
}

// Name returns the stream's debug name.
func (s *Stream) Name() string {
	if s.name == "" {
		num := ""
		if s.num >= 0 {
			num = strconv.Itoa(s.num)
		}
		s.name = "d" + strconv.Itoa(s.dev.ID) + "." + s.prefix + num + s.suffix
	}
	return s.name
}

// Device returns the stream's device.
func (s *Stream) Device() *Device { return s.dev }

// op is what every enqueued stream operation owns: its completion signal
// and its count of dependencies still outstanding. The kind-specific records
// below embed it and register themselves (as sim.Handler) on their
// dependencies and on whatever completes them, so an enqueue allocates one
// record and no closure.
type op struct {
	done    sim.Signal
	s       *Stream
	pending int32 // dependencies not yet fired; the op starts when none remain
	// The op's name is prefix followed by num (left out when negative),
	// built only for the trace hook.
	num    int32
	prefix string
	kind   OpKind
	start  sim.Time
	bytes  int64
}

// enqueue makes o, embedded in the record h, the stream's tail and registers
// h on the previous op and on every unfired dependency. It reports whether o
// can start at once; otherwise h starts it when the last dependency fires.
func (s *Stream) enqueue(o *op, h sim.Handler, deps []*sim.Signal) bool {
	o.done.Init(s.dev.rt.M.Eng, "cudart.op")
	o.s = s
	if t := s.tail; t != nil && !t.Fired() {
		o.pending++
		t.Notify(h)
	}
	for _, d := range deps {
		if d != nil && !d.Fired() {
			o.pending++
			d.Notify(h)
		}
	}
	s.tail = &o.done
	return o.pending == 0
}

// depFired counts one fired dependency and reports whether it was the last.
func (o *op) depFired() bool {
	o.pending--
	return o.pending == 0
}

// forget drops the stream's reference to a finished tail: a fired tail and
// no tail mean the same to every reader, and a stream must not keep its last
// op's record alive.
func (s *Stream) forget(done *sim.Signal) {
	if s.tail == done {
		s.tail = nil
	}
}

// complete reports the op to the trace hook and fires its completion.
func (o *op) complete() {
	rt := o.s.dev.rt
	if rt.OnOp != nil {
		name := o.prefix
		if o.num >= 0 {
			var buf [32]byte
			name = string(strconv.AppendInt(append(buf[:0], o.prefix...), int64(o.num), 10))
		}
		rt.OnOp(OpRecord{Kind: o.kind, Name: name, Device: o.s.dev.ID, Stream: o.s.Name(),
			Start: o.start, End: rt.M.Eng.Now(), Bytes: o.bytes})
	}
	o.s.forget(&o.done)
	o.done.Fire()
}

// kernelOp is a kernel: it occupies its stream for dur, then runs commit.
type kernelOp struct {
	op
	dur    sim.Time
	commit func()
}

// Handle counts a fired dependency, starting the kernel on the last one;
// once the kernel has started, the only thing that runs it is its
// completion event (an engine-owned one: it never outlives the kernel).
func (k *kernelOp) Handle() {
	if k.pending > 0 {
		if k.depFired() {
			k.launch()
		}
		return
	}
	// The payload (real pack/unpack/compute) is pure per-device data work;
	// defer it to the parallel executor. Recording and the completion
	// signal stay in event context so trace order and scheduling are
	// identical under any worker count.
	if k.commit != nil {
		key := int32(k.s.dev.ID)
		k.s.dev.rt.M.Eng.Defer(k.commit, key, key)
	}
	k.complete()
}

func (k *kernelOp) launch() {
	eng := k.s.dev.rt.M.Eng
	k.start = eng.Now()
	eng.AfterHandler(k.dur, k)
}

// copyOp is a copy over the links between its buffers (see path), moving
// real bytes at completion.
type copyOp struct {
	op
	dst, src       *Buffer
	dstOff, srcOff int64
}

// path returns the links the copy crosses, from its kind and buffers (the
// node's path tables are lookups, so the record need not carry them).
func (c *copyOp) path() []*flownet.Link {
	nodes := c.s.dev.rt.M.Nodes
	switch c.kind {
	case OpMemcpyD2D:
		return nodes[c.src.dev.Node].DevToDevPath(c.src.dev.Local, c.dst.dev.Local)
	case OpMemcpyD2H:
		return nodes[c.src.dev.Node].DevToHostPath(c.src.dev.Local, c.dst.socket)
	default: // OpMemcpyH2D
		return nodes[c.dst.dev.Node].HostToDevPath(c.src.socket, c.dst.dev.Local)
	}
}

// Handle counts a fired dependency, starting the copy's flow on the last
// one; once the copy has started, the only thing that runs it is the flow's
// completion.
func (c *copyOp) Handle() {
	if c.pending > 0 {
		if c.depFired() {
			c.launch()
		}
		return
	}
	if c.dst.data != nil && c.src.data != nil {
		// Host-side buffers take the key of the device moving their bytes:
		// no other deferred op touches a staging buffer within the same
		// instant (cross-instant readers are safe after the flush).
		c.s.dev.rt.M.Eng.Defer(func() {
			copy(c.dst.data[c.dstOff:c.dstOff+c.bytes], c.src.data[c.srcOff:c.srcOff+c.bytes])
		}, bufKey(c.src, c.s.dev), bufKey(c.dst, c.s.dev))
	}
	c.complete()
}

func (c *copyOp) launch() {
	rt := c.s.dev.rt
	c.start = rt.M.Eng.Now()
	rt.M.Net.StartFlowNum(c.prefix, int(c.num), c.path(), float64(c.bytes)).Done().Notify(c)
}

// funcOp is a custom op (Enqueue) whose run fires its completion, or, with
// no run, a marker that completes as soon as its dependencies have
// (WaitEvent). Neither is reported to the trace hook.
type funcOp struct {
	op
	run func(done *sim.Signal)
}

// Handle counts a fired dependency, starting the op on the last one; once
// a custom op has started, the only thing that runs it is its own
// completion, which lets the stream forget it.
func (f *funcOp) Handle() {
	if f.pending > 0 {
		if f.depFired() {
			f.launch()
		}
		return
	}
	f.s.forget(&f.done)
}

func (f *funcOp) launch() {
	if f.run == nil {
		f.s.forget(&f.done)
		f.done.Fire()
		return
	}
	f.done.Notify(f)
	f.run(&f.done)
}

// Enqueue adds a custom op to the stream: run starts once the previous op
// and all deps complete, and must eventually fire done. Higher layers (the
// simulated CUDA-aware MPI transport) use this to place their internal
// transfers on a device's default stream.
func (s *Stream) Enqueue(run func(done *sim.Signal), deps ...*sim.Signal) *sim.Signal {
	f := &funcOp{run: run}
	if s.enqueue(&f.op, f, deps) {
		f.launch()
	}
	return &f.done
}

// Streams returns all streams created on the device, including the default
// stream.
func (d *Device) Streams() []*Stream { return d.streams }

// AllWorkEvent returns a signal that fires once every op currently enqueued
// on any stream of the device has completed. This models the legacy default
// stream's device-wide synchronization behaviour.
func (d *Device) AllWorkEvent() *sim.Signal {
	ev := sim.NewSignal(d.rt.M.Eng, "cudart.allwork")
	pending := 0
	for _, s := range d.streams {
		if s.tail != nil && !s.tail.Fired() {
			pending++
			s.tail.OnFire(func() {
				pending--
				if pending == 0 {
					ev.Fire()
				}
			})
		}
	}
	if pending == 0 {
		ev.Fire()
	}
	return ev
}

// Synchronize parks the process until all currently enqueued ops complete
// (cudaStreamSynchronize).
func (s *Stream) Synchronize(p *sim.Proc) {
	if s.tail != nil {
		s.tail.Wait(p)
	}
}

// Query reports whether all enqueued work has completed (cudaStreamQuery).
func (s *Stream) Query() bool { return s.tail == nil || s.tail.Fired() }

// EventRecord returns a signal that fires when all work enqueued on the
// stream so far completes (cudaEventRecord + cudaEventSynchronize/Query
// rolled into the Signal API).
func (s *Stream) EventRecord() *sim.Signal {
	eng := s.dev.rt.M.Eng
	ev := sim.NewSignal(eng, "cudart.event")
	if s.tail == nil || s.tail.Fired() {
		ev.Fire()
		return ev
	}
	s.tail.OnFire(ev.Fire)
	return ev
}

// WaitEvent makes all subsequently enqueued ops wait for ev in addition to
// stream order (cudaStreamWaitEvent).
func (s *Stream) WaitEvent(ev *sim.Signal) {
	f := &funcOp{}
	if s.enqueue(&f.op, f, []*sim.Signal{ev}) {
		f.launch()
	}
}

// Kernel enqueues a simulated kernel: it occupies the stream for the launch
// overhead plus bytes/bw, then runs commit (the real data movement or
// computation) at completion. A zero bw means the kernel costs only the
// launch overhead. Optional deps gate the start in addition to stream order
// (cudaStreamWaitEvent semantics). Returns the completion signal.
func (s *Stream) Kernel(name string, bytes int64, bw float64, commit func(), deps ...*sim.Signal) *sim.Signal {
	return s.KernelNum(name, -1, bytes, bw, commit, deps...)
}

// KernelNum is Kernel named prefix + strconv.Itoa(num), with the name built
// only when the trace hook reads it; a negative num names the op prefix.
func (s *Stream) KernelNum(prefix string, num int, bytes int64, bw float64, commit func(), deps ...*sim.Signal) *sim.Signal {
	rt := s.dev.rt
	dur := rt.M.Params.KernelLaunch
	if bw > 0 {
		dur += float64(bytes) / bw
	}
	dur *= s.dev.SlowFactor()
	k := &kernelOp{op: op{kind: OpKernel, bytes: bytes, prefix: prefix, num: int32(num)}, dur: dur, commit: commit}
	if s.enqueue(&k.op, k, deps) {
		k.launch()
	}
	return &k.done
}

// memcpyFlow enqueues a copy of the given kind, moving real bytes at
// completion.
func (s *Stream) memcpyFlow(kind OpKind, prefix string, num int, dst, src *Buffer, dstOff, srcOff, bytes int64, deps []*sim.Signal) *sim.Signal {
	checkRange(dst, dstOff, bytes)
	checkRange(src, srcOff, bytes)
	c := &copyOp{op: op{kind: kind, bytes: bytes, prefix: prefix, num: int32(num)},
		dst: dst, src: src, dstOff: dstOff, srcOff: srcOff}
	if s.enqueue(&c.op, c, deps) {
		c.launch()
	}
	return &c.done
}

// bufKey is the parallel-executor key of a buffer: its owning device, or —
// for host buffers — the device driving the copy.
func bufKey(b *Buffer, driver *Device) int32 {
	if b.dev != nil {
		return int32(b.dev.ID)
	}
	return int32(driver.ID)
}

func checkRange(b *Buffer, off, bytes int64) {
	if off < 0 || bytes < 0 || off+bytes > b.size {
		panic(fmt.Sprintf("cudart: copy range [%d,%d) out of buffer size %d", off, off+bytes, b.size))
	}
}

// MemcpyPeerAsync enqueues a device-to-device copy (cudaMemcpyPeerAsync).
// Both buffers must be device buffers on the same node; peer access from the
// stream's device path is assumed enabled by the caller for cross-device
// copies (the exchange layer checks it).
func (s *Stream) MemcpyPeerAsync(name string, dst *Buffer, dstOff int64, src *Buffer, srcOff int64, bytes int64, deps ...*sim.Signal) *sim.Signal {
	return s.MemcpyPeerAsyncNum(name, -1, dst, dstOff, src, srcOff, bytes, deps...)
}

// MemcpyPeerAsyncNum is MemcpyPeerAsync named prefix + strconv.Itoa(num),
// with the name built only when something reads it.
func (s *Stream) MemcpyPeerAsyncNum(prefix string, num int, dst *Buffer, dstOff int64, src *Buffer, srcOff int64, bytes int64, deps ...*sim.Signal) *sim.Signal {
	if dst.dev == nil || src.dev == nil {
		panic("cudart: MemcpyPeerAsync requires device buffers")
	}
	if dst.dev.Node != src.dev.Node {
		panic("cudart: MemcpyPeerAsync across nodes")
	}
	return s.memcpyFlow(OpMemcpyD2D, prefix, num, dst, src, dstOff, srcOff, bytes, deps)
}

// MemcpyAsync enqueues a device<->pinned-host copy (cudaMemcpyAsync). One
// buffer must be a device buffer, the other a host buffer on the same node.
func (s *Stream) MemcpyAsync(name string, dst *Buffer, dstOff int64, src *Buffer, srcOff int64, bytes int64, deps ...*sim.Signal) *sim.Signal {
	return s.MemcpyAsyncNum(name, -1, dst, dstOff, src, srcOff, bytes, deps...)
}

// MemcpyAsyncNum is MemcpyAsync named prefix + strconv.Itoa(num), with the
// name built only when something reads it.
func (s *Stream) MemcpyAsyncNum(prefix string, num int, dst *Buffer, dstOff int64, src *Buffer, srcOff int64, bytes int64, deps ...*sim.Signal) *sim.Signal {
	switch {
	case src.dev != nil && dst.host: // D2H
		if src.dev.Node != dst.node {
			panic("cudart: D2H across nodes")
		}
		return s.memcpyFlow(OpMemcpyD2H, prefix, num, dst, src, dstOff, srcOff, bytes, deps)
	case dst.dev != nil && src.host: // H2D
		if dst.dev.Node != src.node {
			panic("cudart: H2D across nodes")
		}
		return s.memcpyFlow(OpMemcpyH2D, prefix, num, dst, src, dstOff, srcOff, bytes, deps)
	default:
		panic("cudart: MemcpyAsync requires one device and one pinned host buffer")
	}
}

// IssueCost charges the calling process the CPU-side cost of issuing one
// async memcpy (models the driver call, visible as CPU time in Fig 9).
func (rt *Runtime) IssueCost(p *sim.Proc) { p.Sleep(rt.M.Params.MemcpyLaunch) }

// LaunchCost charges the calling process the CPU-side cost of launching a
// kernel.
func (rt *Runtime) LaunchCost(p *sim.Proc) { p.Sleep(rt.M.Params.KernelLaunch) }
