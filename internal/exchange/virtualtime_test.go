package exchange

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"github.com/nodeaware/stencil/internal/cudart"
	"github.com/nodeaware/stencil/internal/fault"
	"github.com/nodeaware/stencil/internal/part"
)

// TestVirtualTimePinned pins the float64 bits of every iteration's virtual
// time for two Fig 12b weak-scaling configurations: 8 nodes under exact
// max-min fairness, and 2 nodes under a 1-hop fairness horizon. Virtual time
// is the paper's metric and must stay bit-stable across engine, waterfill
// and allocation work; a change that moves it on purpose re-records these
// values and says why.
func TestVirtualTimePinned(t *testing.T) {
	cases := []struct {
		name    string
		nodes   int
		horizon int
		want    []uint64
	}{
		{"fig12b-8n-exact", 8, 0, []uint64{0x3f916f9ecc4cdb38, 0x3f916f9e54cda100}},
		{"fig12b-2n-horizon1", 2, 1, []uint64{0x3f86c00ac976797d, 0x3f86c00a69bd6d0b}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// The Fig 12b domain: 750^3 cells per GPU, six GPUs per node.
			edge := int(math.Round(750 * math.Cbrt(float64(c.nodes*6))))
			e, err := New(Options{
				Nodes: c.nodes, RanksPerNode: 6,
				Domain: part.Dim3{X: edge, Y: edge, Z: edge},
				Radius: 2, Quantities: 4, ElemSize: 4,
				Caps: CapsAll(), NodeAware: true,
				FairnessHorizon: c.horizon,
			})
			if err != nil {
				t.Fatal(err)
			}
			got := e.Run(len(c.want)).Iterations
			for i, v := range got {
				if b := math.Float64bits(v); b != c.want[i] {
					t.Errorf("iteration %d: virtual time %v (bits %#x), want %v (bits %#x)",
						i, v, b, math.Float64frombits(c.want[i]), c.want[i])
				}
			}
		})
	}
}

// TestVirtualTimePinnedPaths pins the float64 bits of every iteration's
// virtual time for one small configuration per MPI transport path, so that
// engine and transport refactors are held to bit-identical timing on each
// of them: intra-node shared memory, NIC sends under timeout retries, the
// CUDA-aware transport (plain and under the reliable envelope), persistent
// channels under the reliable envelope with overlap on a lossy network,
// progress-engine pauses, and the verifier's forced out-of-band repair in
// both barrier and overlap mode with compute kernels interleaved. Each case
// also pins a hash of its op timeline — every CUDA op and host staging copy
// in recording order, with its float64 start and end bits — which also fixes
// the order of same-instant work, and checks that its path was actually
// taken.
func TestVirtualTimePinnedPaths(t *testing.T) {
	lossy := func(seed uint64) *fault.Scenario {
		sc := &fault.Scenario{Name: "lossy", Seed: seed}
		for n := 0; n < 2; n++ {
			sc.LossyNIC(0, n, 0.2, 0.2, 0.2)
		}
		return sc
	}
	// forced corrupts every inter-node delivery and allows a single retry, so
	// every damaged quadrant reaches the verifier's out-of-band repair; the
	// run interleaves a no-op compute, which puts the compute kernels into
	// the op timeline.
	forced := func(overlap bool) Options {
		o := lossyOpts(false)
		o.Overlap = overlap
		o.SendRetries = 1
		o.Fault = &fault.Scenario{Name: "corrupt-all"}
		for n := 0; n < 2; n++ {
			o.Fault.LossyNIC(0, n, 0, 1, 0)
		}
		return o
	}
	checkForced := func(t *testing.T, st *Stats) {
		if st.ForcedRepairs == 0 {
			t.Error("no quadrant was repaired out-of-band; the forced-repair branch was not taken")
		}
	}
	cases := []struct {
		name    string
		opts    Options
		iters   int
		compute bool // RunWithCompute with a no-op compute
		check   func(t *testing.T, st *Stats)
		want    []uint64
		ops     uint64 // opTimelineHash of the run
	}{
		{
			name: "shm-1n6r",
			opts: Options{Nodes: 1, RanksPerNode: 6, Domain: part.Dim3{X: 96, Y: 96, Z: 96},
				Radius: 2, Quantities: 2, ElemSize: 4, Caps: CapsRemote(), NodeAware: true},
			iters: 2,
			want:  []uint64{0x3f468b091e43b81a, 0x3f468b091e43b816},
			ops:   0x1dc30226c0c7d5b5,
		},
		{
			name: "nic-retry-degraded",
			opts: Options{Nodes: 2, RanksPerNode: 2, Domain: part.Dim3{X: 96, Y: 96, Z: 96},
				Radius: 2, Quantities: 2, ElemSize: 4, Caps: CapsRemote(), NodeAware: true,
				SendTimeout: 20e-6, SendRetries: 3,
				Fault: (&fault.Scenario{Name: "slow-nic"}).DegradeNIC(0, 0, 0.02)},
			iters: 2,
			want:  []uint64{0x3f60b6aceae58ec9, 0x3f60b6aceae58ec9},
			ops:   0xf65fa49147e9816b,
			check: func(t *testing.T, st *Stats) {
				if st.MPIRetries == 0 {
					t.Error("no send timed out; the retry path was not taken")
				}
			},
		},
		{
			name: "cuda-aware",
			opts: Options{Nodes: 2, RanksPerNode: 2, Domain: part.Dim3{X: 96, Y: 96, Z: 96},
				Radius: 2, Quantities: 2, ElemSize: 4, Caps: CapsRemote(), CUDAAware: true, NodeAware: true},
			iters: 2,
			want:  []uint64{0x3f58b0f6a812932a, 0x3f58b0f6a8129389},
			ops:   0xe6011a33b3502a59,
		},
		{
			name: "cuda-aware-reliable-lossy",
			opts: func() Options {
				o := lossyOpts(true)
				o.Caps = CapsRemote()
				o.SendRetries = 2
				o.Fault = lossy(5)
				return o
			}(),
			iters: 3,
			want:  []uint64{0x3f65306aac28dc41, 0x3f657e7aa9492274, 0x3f65bb5ec61446f8},
			ops:   0x9ff6955ab680a7e3,
			check: func(t *testing.T, st *Stats) {
				if st.Delivery.Drops == 0 || st.Delivery.Corrupts == 0 {
					t.Errorf("delivery faults not exercised: %+v", st.Delivery)
				}
				if st.ReExchanges == 0 {
					t.Error("no quadrant was re-exchanged; the verifier's round loop was not taken")
				}
			},
		},
		{
			name: "reliable-overlap-lossy",
			opts: func() Options {
				o := lossyOpts(false)
				o.Overlap = true
				o.SendRetries = 2
				o.Fault = lossy(17)
				return o
			}(),
			iters: 3,
			want:  []uint64{0x3f5c1d75402ca05e, 0x3f5bfdf8a0bb55ec, 0x3f5c10e845840a58},
			ops:   0x91ded483704110df,
			check: func(t *testing.T, st *Stats) {
				if st.Delivery.Drops == 0 || st.Delivery.Corrupts == 0 || st.Delivery.Dups == 0 {
					t.Errorf("delivery faults not exercised: %+v", st.Delivery)
				}
				if st.ReExchanges == 0 {
					t.Error("no quadrant was re-exchanged; the verify pump's round loop was not taken")
				}
			},
		},
		{
			name: "pause-progress",
			opts: Options{Nodes: 1, RanksPerNode: 6, Domain: part.Dim3{X: 96, Y: 96, Z: 96},
				Radius: 2, Quantities: 2, ElemSize: 4, Caps: CapsRemote(), NodeAware: true,
				Fault: (&fault.Scenario{Name: "pauses"}).
					PauseRank(100e-6, 0, 300e-6).PauseRank(200e-6, 3, 80e-6).PauseRank(1000e-6, 3, 200e-6)},
			iters: 3,
			want:  []uint64{0x3f47fa695df05104, 0x3f491ca54c11c520, 0x3f468b091e43b818},
			ops:   0xe91122975c8a3af9,
		},
		{
			name:    "forced-repair-barrier",
			opts:    forced(false),
			iters:   2,
			compute: true,
			check:   checkForced,
			want:    []uint64{0x3f5bfdfe201b4e1d, 0x3f5bfdfe201b53d0},
			ops:     0xeea1ab8857233a0f,
		},
		{
			name:    "forced-repair-overlap",
			opts:    forced(true),
			iters:   2,
			compute: true,
			check:   checkForced,
			want:    []uint64{0x3f5cc74c3c43dce1, 0x3f5cc74c3c43dc60},
			ops:     0x9d9dffdde8c55901,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := c.opts
			o.TraceOps = true
			e, err := New(o)
			if err != nil {
				t.Fatal(err)
			}
			if c.opts.RealData {
				fillGlobal(e)
			}
			var st *Stats
			if c.compute {
				st = e.RunWithCompute(c.iters, func(*Sub) {})
			} else {
				st = e.Run(c.iters)
			}
			if c.check != nil {
				c.check(t, st)
			}
			if len(st.Iterations) != len(c.want) {
				t.Fatalf("%d iterations, want %d: bits %#x", len(st.Iterations), len(c.want), bitsOf(st.Iterations))
			}
			for i, v := range st.Iterations {
				if b := math.Float64bits(v); b != c.want[i] {
					t.Errorf("iteration %d: virtual time %v (bits %#x), want %v (bits %#x)",
						i, v, b, math.Float64frombits(c.want[i]), c.want[i])
				}
			}
			if h := opTimelineHash(e.Trace); h != c.ops {
				t.Errorf("op timeline of %d records hashes to %#x, want %#x", len(e.Trace), h, c.ops)
			}
		})
	}
}

// opTimelineHash is an FNV-1a hash over every op record in order.
func opTimelineHash(recs []cudart.OpRecord) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, r := range recs {
		put(uint64(r.Kind))
		h.Write([]byte(r.Name))
		put(uint64(int64(r.Device)))
		h.Write([]byte(r.Stream))
		put(math.Float64bits(r.Start))
		put(math.Float64bits(r.End))
		put(uint64(r.Bytes))
	}
	return h.Sum64()
}

func bitsOf(vs []float64) []uint64 {
	out := make([]uint64, len(vs))
	for i, v := range vs {
		out[i] = math.Float64bits(v)
	}
	return out
}
