// Package machine models the hardware of a heterogeneous GPU cluster: nodes
// with multiple CPU sockets and multiple GPUs, the links between them, and
// the cost-model parameters for the simulated CUDA/MPI substrate.
//
// The default configuration reproduces a Summit node (paper Fig 10, Table I):
// two POWER9 sockets, three V100s per socket forming a "triad", NVLink
// (50 GB/s per direction) between GPUs in a triad and between each GPU and
// its socket, an X-Bus SMP link (64 GB/s per direction) between sockets, and
// a NIC with 12.5 GB/s per direction per rail.
//
// Transfers are expressed as paths over unidirectional flownet links; the
// contention behaviour of the five exchange methods in the paper emerges from
// which links each path crosses and who shares them.
package machine

import (
	"fmt"

	"github.com/nodeaware/stencil/internal/flownet"
	"github.com/nodeaware/stencil/internal/sim"
)

// GB is 1e9 bytes, the unit vendor datasheets use for link bandwidth.
const GB = 1e9

// Params collects the cost-model constants of the simulation. Bandwidths are
// bytes/second, times are seconds.
type Params struct {
	// Link bandwidths (per direction).
	NVLinkBW   float64 // GPU-GPU within a triad, and GPU-CPU
	XBusBW     float64 // socket-to-socket SMP bus
	NICBW      float64 // node injection per direction (all rails)
	HostMemBW  float64 // per-socket host memory engine for staged copies
	ShmCopyBW  float64 // single-rank shared-memory copy bandwidth (one core)
	DevLocalBW float64 // same-GPU device-to-device copy bandwidth

	// Kernel and copy-engine overheads.
	KernelLaunch sim.Time // CUDA kernel launch latency
	MemcpyLaunch sim.Time // async memcpy issue latency
	PackBW       float64  // effective bandwidth of strided pack/unpack kernels

	// MPI costs.
	MPIIntraLatency sim.Time // per-message intra-node latency
	MPIInterLatency sim.Time // per-message inter-node latency
	RendezvousCost  sim.Time // extra handshake for large messages
	EagerLimit      float64  // messages up to this size skip the rendezvous

	// cudaIpc* and CUDA-aware MPI costs.
	IpcGetHandle  sim.Time // cudaIpcGetMemHandle
	IpcOpenHandle sim.Time // cudaIpcOpenMemHandle
	// CUDA-aware MPI re-establishes device-buffer access per message (the
	// paper observes it does the cudaIpc* exchange every time) and issues its
	// internal copies on the default stream followed by device-wide
	// synchronization. These two knobs model that pathology.
	CudaAwarePerMsg    sim.Time // per-message registration/handle overhead
	CudaAwareSyncCost  sim.Time // cudaDeviceSynchronize cost per message
	CudaAwareChunk     float64  // pipeline chunk size for CUDA-aware transfers
	CudaAwareChunkCost sim.Time // per-chunk issue cost on the default stream
}

// DefaultParams returns the calibrated cost model used throughout the
// benchmarks. Absolute values are chosen to be physically plausible for a
// 2019-era Summit node; the paper's result shapes are insensitive to modest
// changes (see BenchmarkAblation* in the repository root).
func DefaultParams() Params {
	return Params{
		NVLinkBW:   46 * GB, // ~92% of the 50 GB/s spec is achievable
		XBusBW:     58 * GB,
		NICBW:      25 * GB, // dual-rail EDR node injection
		HostMemBW:  60 * GB, // read+write crossing accounted as one pass
		ShmCopyBW:  14 * GB, // one core driving the copy loop
		DevLocalBW: 700 * GB,

		KernelLaunch: 8e-6,
		MemcpyLaunch: 5e-6,
		PackBW:       250 * GB,

		MPIIntraLatency: 1.5e-6,
		MPIInterLatency: 4e-6,
		RendezvousCost:  3e-6,
		EagerLimit:      64 * 1024,

		IpcGetHandle:  30e-6,
		IpcOpenHandle: 80e-6,

		CudaAwarePerMsg:    25e-6,
		CudaAwareSyncCost:  12e-6,
		CudaAwareChunk:     1 << 20, // 1 MiB pipeline chunks
		CudaAwareChunkCost: 3e-6,
	}
}

// NodeConfig describes the shape of one node.
type NodeConfig struct {
	Sockets       int
	GPUsPerSocket int
}

// SummitNode is the node shape of the evaluation platform: 2 sockets ×
// 3 GPUs.
func SummitNode() NodeConfig { return NodeConfig{Sockets: 2, GPUsPerSocket: 3} }

// SierraNode is an LLNL Sierra-like shape: 2 sockets × 2 GPUs.
func SierraNode() NodeConfig { return NodeConfig{Sockets: 2, GPUsPerSocket: 2} }

// DGXNode is a DGX-1-like shape: 2 sockets × 4 GPUs. (The real DGX-1 has a
// hybrid-cube-mesh NVLink topology; here each socket's four GPUs form a
// fully connected island, which preserves the fast-island / slow-bridge
// structure the placement phase exploits.)
func DGXNode() NodeConfig { return NodeConfig{Sockets: 2, GPUsPerSocket: 4} }

// FatNode is a hypothetical 16-GPU node (2 × 8) used to exercise the
// heuristic placement path, where exhaustive QAP search is infeasible.
func FatNode() NodeConfig { return NodeConfig{Sockets: 2, GPUsPerSocket: 8} }

// GPUs returns the number of GPUs in a node of this shape.
func (c NodeConfig) GPUs() int { return c.Sockets * c.GPUsPerSocket }

// Node is one simulated machine in the cluster.
type Node struct {
	ID     int
	Config NodeConfig

	// Per-GPU links to the socket complex (NVLink to CPU), indexed by local
	// GPU id.
	gpuUp   []*flownet.Link // GPU -> socket
	gpuDown []*flownet.Link // socket -> GPU
	// Same-GPU device-local copy engine.
	devLocal []*flownet.Link
	// Direct NVLink between GPUs in the same triad, directed.
	nvlink map[[2]int]*flownet.Link
	// Directed socket-to-socket SMP links.
	xbus map[[2]int]*flownet.Link
	// Per-socket host memory engine.
	hostMem []*flownet.Link
	// NIC, per direction.
	nicOut, nicIn *flownet.Link

	// Memoized intra-node copy paths, built once in buildNode: the link
	// topology is immutable after construction (faults only change link
	// state, not identity), and the exchange layers request these paths on
	// every transfer. Each cached slice is capacity-clamped so a caller
	// appending to it copies instead of clobbering the cache.
	d2d [][]*flownet.Link // [src*gpus+dst]
	d2h [][]*flownet.Link // [gpu*sockets+socket]
	h2d [][]*flownet.Link // [socket*gpus+gpu]
}

// Socket returns the socket a local GPU belongs to.
func (n *Node) Socket(gpu int) int { return gpu / n.Config.GPUsPerSocket }

// SameTriad reports whether two local GPUs share a socket (and hence have a
// direct NVLink between them).
func (n *Node) SameTriad(a, b int) bool { return n.Socket(a) == n.Socket(b) }

// Machine is the whole simulated cluster.
type Machine struct {
	Eng    *sim.Engine
	Net    *flownet.Network
	Params Params
	Nodes  []*Node

	// Memoized inter-node paths, filled on first use (only endpoint pairs
	// that actually communicate pay an entry). Same read-only contract as
	// the Node caches.
	h2hCache map[[4]int][]*flownet.Link
	remCache map[[4]int][]*flownet.Link
}

// New builds a cluster of identical nodes.
func New(eng *sim.Engine, nodes int, cfg NodeConfig, p Params) *Machine {
	if nodes < 1 {
		panic(fmt.Sprintf("machine: %d nodes", nodes))
	}
	if cfg.Sockets < 1 || cfg.GPUsPerSocket < 1 {
		panic(fmt.Sprintf("machine: bad node config %+v", cfg))
	}
	m := &Machine{
		Eng:      eng,
		Net:      flownet.New(eng),
		Params:   p,
		h2hCache: make(map[[4]int][]*flownet.Link),
		remCache: make(map[[4]int][]*flownet.Link),
	}
	for id := 0; id < nodes; id++ {
		m.Nodes = append(m.Nodes, m.buildNode(id, cfg))
	}
	return m
}

// NewSummit builds a cluster of Summit-shaped nodes with default parameters.
func NewSummit(eng *sim.Engine, nodes int) *Machine {
	return New(eng, nodes, SummitNode(), DefaultParams())
}

func (m *Machine) buildNode(id int, cfg NodeConfig) *Node {
	p := m.Params
	n := &Node{
		ID:     id,
		Config: cfg,
		nvlink: make(map[[2]int]*flownet.Link),
		xbus:   make(map[[2]int]*flownet.Link),
	}
	gpus := cfg.GPUs()
	for g := 0; g < gpus; g++ {
		n.gpuUp = append(n.gpuUp, flownet.NewLink(fmt.Sprintf("n%d.g%d.up", id, g), p.NVLinkBW))
		n.gpuDown = append(n.gpuDown, flownet.NewLink(fmt.Sprintf("n%d.g%d.down", id, g), p.NVLinkBW))
		n.devLocal = append(n.devLocal, flownet.NewLink(fmt.Sprintf("n%d.g%d.local", id, g), p.DevLocalBW))
	}
	for a := 0; a < gpus; a++ {
		for b := 0; b < gpus; b++ {
			if a != b && n.SameTriad(a, b) {
				n.nvlink[[2]int{a, b}] = flownet.NewLink(fmt.Sprintf("n%d.nvlink.%d-%d", id, a, b), p.NVLinkBW)
			}
		}
	}
	for s1 := 0; s1 < cfg.Sockets; s1++ {
		n.hostMem = append(n.hostMem, flownet.NewLink(fmt.Sprintf("n%d.s%d.mem", id, s1), p.HostMemBW))
		for s2 := 0; s2 < cfg.Sockets; s2++ {
			if s1 != s2 {
				n.xbus[[2]int{s1, s2}] = flownet.NewLink(fmt.Sprintf("n%d.xbus.%d-%d", id, s1, s2), p.XBusBW)
			}
		}
	}
	n.nicOut = flownet.NewLink(fmt.Sprintf("n%d.nic.out", id), p.NICBW)
	n.nicIn = flownet.NewLink(fmt.Sprintf("n%d.nic.in", id), p.NICBW)
	n.buildPathCache()
	return n
}

// buildPathCache memoizes every intra-node copy path. clamp caps each slice
// at its length so callers that append (MPI's shm transport) copy rather than
// write into the cache.
func (n *Node) buildPathCache() {
	clamp := func(p []*flownet.Link) []*flownet.Link { return p[:len(p):len(p)] }
	gpus, sockets := n.Config.GPUs(), n.Config.Sockets
	n.d2d = make([][]*flownet.Link, gpus*gpus)
	for s := 0; s < gpus; s++ {
		for d := 0; d < gpus; d++ {
			n.d2d[s*gpus+d] = clamp(n.buildDevToDev(s, d))
		}
	}
	n.d2h = make([][]*flownet.Link, gpus*sockets)
	n.h2d = make([][]*flownet.Link, sockets*gpus)
	for g := 0; g < gpus; g++ {
		for s := 0; s < sockets; s++ {
			n.d2h[g*sockets+s] = clamp(n.buildDevToHost(g, s))
			n.h2d[s*gpus+g] = clamp(n.buildHostToDev(s, g))
		}
	}
}

// NVLinkPair returns the two directed NVLink links between same-triad GPUs a
// and b, or (nil, nil) when the pair has no direct NVLink. Fault injection
// targets both directions of the physical link.
func (n *Node) NVLinkPair(a, b int) (ab, ba *flownet.Link) {
	return n.nvlink[[2]int{a, b}], n.nvlink[[2]int{b, a}]
}

// XBusPair returns the two directed X-Bus links between sockets s1 and s2,
// or (nil, nil) for an invalid pair.
func (n *Node) XBusPair(s1, s2 int) (ab, ba *flownet.Link) {
	return n.xbus[[2]int{s1, s2}], n.xbus[[2]int{s2, s1}]
}

// NIC returns the node's injection links, per direction.
func (n *Node) NIC() (out, in *flownet.Link) { return n.nicOut, n.nicIn }

// GPUSocketLinks returns local GPU g's links to its socket complex (the
// GPU-CPU NVLink), per direction.
func (n *Node) GPUSocketLinks(g int) (up, down *flownet.Link) {
	return n.gpuUp[g], n.gpuDown[g]
}

// HostMem exposes the per-socket host memory link (used by MPI's
// shared-memory transport).
func (n *Node) HostMem(socket int) *flownet.Link { return n.hostMem[socket] }

// IntraLinks returns every directed link inside the node — NVLinks, X-Bus,
// GPU-socket links, and host memory engines — in a deterministic order, for
// health scans by the degradation monitor.
func (n *Node) IntraLinks() []*flownet.Link {
	var ls []*flownet.Link
	g := n.Config.GPUs()
	for a := 0; a < g; a++ {
		for b := 0; b < g; b++ {
			if l, ok := n.nvlink[[2]int{a, b}]; ok {
				ls = append(ls, l)
			}
		}
	}
	for s1 := 0; s1 < n.Config.Sockets; s1++ {
		for s2 := 0; s2 < n.Config.Sockets; s2++ {
			if l, ok := n.xbus[[2]int{s1, s2}]; ok {
				ls = append(ls, l)
			}
		}
	}
	for a := 0; a < g; a++ {
		ls = append(ls, n.gpuUp[a], n.gpuDown[a])
	}
	for s := 0; s < n.Config.Sockets; s++ {
		ls = append(ls, n.hostMem[s])
	}
	return ls
}

// DevToDevPath returns the flow path for a peer (GPUDirect P2P) copy between
// two GPUs on this node. Same-triad pairs take the dedicated NVLink; pairs on
// different sockets route GPU→socket→X-Bus→socket→GPU. A same-GPU copy uses
// the device-local engine.
func (n *Node) DevToDevPath(src, dst int) []*flownet.Link {
	return n.d2d[src*n.Config.GPUs()+dst]
}

func (n *Node) buildDevToDev(src, dst int) []*flownet.Link {
	if src == dst {
		return []*flownet.Link{n.devLocal[src]}
	}
	if l, ok := n.nvlink[[2]int{src, dst}]; ok {
		return []*flownet.Link{l}
	}
	s1, s2 := n.Socket(src), n.Socket(dst)
	return []*flownet.Link{n.gpuUp[src], n.xbus[[2]int{s1, s2}], n.gpuDown[dst]}
}

// DevToHostPath returns the flow path for a device-to-pinned-host copy. The
// host buffer lives on the socket owning the GPU's controlling process.
func (n *Node) DevToHostPath(gpu, socket int) []*flownet.Link {
	return n.d2h[gpu*n.Config.Sockets+socket]
}

func (n *Node) buildDevToHost(gpu, socket int) []*flownet.Link {
	path := []*flownet.Link{n.gpuUp[gpu]}
	if n.Socket(gpu) != socket {
		path = append(path, n.xbus[[2]int{n.Socket(gpu), socket}])
	}
	return append(path, n.hostMem[socket])
}

// HostToDevPath is the reverse of DevToHostPath.
func (n *Node) HostToDevPath(socket, gpu int) []*flownet.Link {
	return n.h2d[socket*n.Config.GPUs()+gpu]
}

func (n *Node) buildHostToDev(socket, gpu int) []*flownet.Link {
	path := []*flownet.Link{n.hostMem[socket]}
	if n.Socket(gpu) != socket {
		path = append(path, n.xbus[[2]int{socket, n.Socket(gpu)}])
	}
	return append(path, n.gpuDown[gpu])
}

// HostToHostPath returns the path for a host-side copy between two sockets of
// possibly different nodes (MPI's transport).
func (m *Machine) HostToHostPath(srcNode, srcSocket, dstNode, dstSocket int) []*flownet.Link {
	key := [4]int{srcNode, srcSocket, dstNode, dstSocket}
	if p, ok := m.h2hCache[key]; ok {
		return p
	}
	sn, dn := m.Nodes[srcNode], m.Nodes[dstNode]
	var p []*flownet.Link
	switch {
	case srcNode == dstNode && srcSocket == dstSocket:
		p = []*flownet.Link{sn.hostMem[srcSocket]}
	case srcNode == dstNode:
		p = []*flownet.Link{
			sn.hostMem[srcSocket],
			sn.xbus[[2]int{srcSocket, dstSocket}],
			sn.hostMem[dstSocket],
		}
	default:
		p = []*flownet.Link{
			sn.hostMem[srcSocket], sn.nicOut,
			dn.nicIn, dn.hostMem[dstSocket],
		}
	}
	m.h2hCache[key] = p
	return p
}

// DevToDevRemotePath returns the GPUDirect-RDMA path between GPUs on
// different nodes (used by CUDA-aware MPI for inter-node messages).
func (m *Machine) DevToDevRemotePath(srcNode, srcGPU, dstNode, dstGPU int) []*flownet.Link {
	sn, dn := m.Nodes[srcNode], m.Nodes[dstNode]
	if srcNode == dstNode {
		return sn.DevToDevPath(srcGPU, dstGPU)
	}
	key := [4]int{srcNode, srcGPU, dstNode, dstGPU}
	if p, ok := m.remCache[key]; ok {
		return p
	}
	p := []*flownet.Link{
		sn.gpuUp[srcGPU], sn.nicOut,
		dn.nicIn, dn.gpuDown[dstGPU],
	}
	m.remCache[key] = p
	return p
}

// TheoreticalBW reports the vendor-datasheet bandwidth class between two
// local GPUs, the quantity a topology-discovery library (NVML) exposes and
// the placement phase consumes. Pairs in a triad see the dedicated NVLink;
// cross-socket pairs see an SMP-class figure: the X-Bus is shared by all
// nine cross-socket pairs (and host traffic), so the per-pair class is far
// below the 64 GB/s aggregate.
func (n *Node) TheoreticalBW(a, b int) float64 {
	if a == b {
		return n.devLocal[a].Capacity
	}
	if n.SameTriad(a, b) {
		return n.nvlink[[2]int{a, b}].Capacity
	}
	cross := n.Config.GPUsPerSocket * n.Config.GPUsPerSocket
	return n.xbus[[2]int{n.Socket(a), n.Socket(b)}].Capacity / float64(cross)
}

// LinkKind classifies the connection between two local GPUs, mirroring
// NVML's topology levels.
type LinkKind int

const (
	// LinkSame means a == b.
	LinkSame LinkKind = iota
	// LinkNVLink is a direct NVLink connection (same triad).
	LinkNVLink
	// LinkSys crosses the SMP interconnect between sockets.
	LinkSys
)

func (k LinkKind) String() string {
	switch k {
	case LinkSame:
		return "SAME"
	case LinkNVLink:
		return "NVLINK"
	case LinkSys:
		return "SYS"
	}
	return fmt.Sprintf("LinkKind(%d)", int(k))
}

// Kind returns the link classification between two local GPUs.
func (n *Node) Kind(a, b int) LinkKind {
	switch {
	case a == b:
		return LinkSame
	case n.SameTriad(a, b):
		return LinkNVLink
	default:
		return LinkSys
	}
}
