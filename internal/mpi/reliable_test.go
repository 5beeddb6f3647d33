package mpi

import (
	"strings"
	"testing"

	"github.com/nodeaware/stencil/internal/flownet"
	"github.com/nodeaware/stencil/internal/sim"
)

// reliableRig builds a 2-node, 1-rank-per-node world with the reliable
// envelope armed and returns the four directed NIC links: node 0 out/in and
// node 1 out/in. A message rank0→rank1 crosses n0out then n1in; its
// ACK/NACK crosses n1out then n0in.
func reliableRig(t *testing.T, cudaAware bool, seed uint64) (*sim.Engine, *World, [4]*flownet.Link) {
	t.Helper()
	e, _, w := setup(2, 1, cudaAware, true)
	w.Reliable = true
	w.DeliverySeed = seed
	n0out, n0in := w.M.Nodes[0].NIC()
	n1out, n1in := w.M.Nodes[1].NIC()
	return e, w, [4]*flownet.Link{n0out, n0in, n1out, n1in}
}

func reliableSendRecv(t *testing.T, e *sim.Engine, w *World, bytes int64) (src, dst []byte) {
	t.Helper()
	sbuf := w.RT.MallocHost(0, 0, bytes)
	dbuf := w.RT.MallocHost(1, 0, bytes)
	for i := range sbuf.Data() {
		sbuf.Data()[i] = byte(3*i + 1)
	}
	e.Spawn("r0", func(p *sim.Proc) { w.Rank(0).Isend(1, 0, sbuf, 0, bytes).Wait(p) })
	e.Spawn("r1", func(p *sim.Proc) { w.Rank(1).Irecv(0, 0, dbuf, 0, bytes).Wait(p) })
	e.Run()
	return sbuf.Data(), dbuf.Data()
}

func payloadEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestReliableCleanDelivery(t *testing.T) {
	e, w, _ := reliableRig(t, false, 1)
	src, dst := reliableSendRecv(t, e, w, 4096)
	if !payloadEqual(src, dst) {
		t.Fatal("clean reliable delivery altered the payload")
	}
	s := w.Stats()
	if s.Messages != 1 || s.Retransmits != 0 || s.Drops != 0 || s.Corrupts != 0 {
		t.Errorf("clean stats = %+v", s)
	}
}

func TestReliableDropAlwaysTerminates(t *testing.T) {
	// Drop probability 1.0: every attempt but the guaranteed final one is
	// withheld. The protocol must still terminate and deliver intact.
	e, w, links := reliableRig(t, false, 2)
	w.SendRetries = 4
	links[0].SetLoss(flownet.Loss{Drop: 1})
	src, dst := reliableSendRecv(t, e, w, 4096)
	if !payloadEqual(src, dst) {
		t.Fatal("payload lost under total drop")
	}
	s := w.Stats()
	if s.Retransmits != 3 {
		t.Errorf("retransmits = %d, want 3 (attempts 1..3)", s.Retransmits)
	}
	if s.Drops != 3 {
		t.Errorf("drops = %d, want 3", s.Drops)
	}
}

func TestReliableCorruptionNackedThenClean(t *testing.T) {
	// One poisoned attempt: seed chosen so attempt 0 corrupts and attempt 1
	// is clean. With corrupt probability 1.0 every attempt corrupts, so use
	// the attempt cap instead: the first maxAttempts-1 attempts are NACKed.
	e, w, links := reliableRig(t, false, 3)
	w.SendRetries = 3
	links[3].SetLoss(flownet.Loss{Corrupt: 1}) // node 1 in: data's last hop
	var compromised bool
	w.OnDeliver = func(_ sim.Time, _, _, _ int, c bool) { compromised = c }
	src, dst := reliableSendRecv(t, e, w, 4096)
	s := w.Stats()
	if s.Nacks != 2 {
		t.Errorf("nacks = %d, want 2", s.Nacks)
	}
	if s.Exhausted != 1 {
		t.Errorf("exhausted = %d, want 1", s.Exhausted)
	}
	if !compromised {
		t.Error("OnDeliver did not flag the exhausted delivery as compromised")
	}
	if payloadEqual(src, dst) {
		t.Error("exhausted corrupt delivery should differ from the source payload")
	}
}

func TestReliableDupDeduplicated(t *testing.T) {
	e, w, links := reliableRig(t, false, 4)
	links[0].SetLoss(flownet.Loss{Dup: 1})
	src, dst := reliableSendRecv(t, e, w, 4096)
	if !payloadEqual(src, dst) {
		t.Fatal("payload wrong under duplication")
	}
	s := w.Stats()
	if s.Dups < 1 || s.Dedups < 1 {
		t.Errorf("dups = %d, dedups = %d, want both >= 1", s.Dups, s.Dedups)
	}
}

func TestReliableAckLossCoveredByRTO(t *testing.T) {
	// Loss only on the reverse path: data always lands, ACKs vanish until
	// the final attempt's reliable control channel. The sender's RTO keeps
	// retransmitting; the receiver deduplicates every extra copy.
	e, w, links := reliableRig(t, false, 5)
	w.SendRetries = 4
	links[1].SetLoss(flownet.Loss{Drop: 1}) // node 0 in: ACK's last hop
	src, dst := reliableSendRecv(t, e, w, 4096)
	if !payloadEqual(src, dst) {
		t.Fatal("payload wrong under ACK loss")
	}
	s := w.Stats()
	if s.AckDrops < 1 {
		t.Errorf("ack drops = %d, want >= 1", s.AckDrops)
	}
	if s.Dedups < 1 {
		t.Errorf("dedups = %d, want >= 1 (spurious retransmissions)", s.Dedups)
	}
	if s.Exhausted != 0 || s.Corrupts != 0 {
		t.Errorf("stats = %+v, want no corruption under pure ACK loss", s)
	}
}

func TestReliableCorruptSpuriousRetransmitDeduplicated(t *testing.T) {
	// Lost ACKs force spurious retransmissions of an already-accepted
	// message, and half the data copies arrive corrupted. Dedup must take
	// precedence over the corruption verdict: once a clean copy is accepted,
	// a later corrupt copy of the same sequence number must not commit a
	// single byte over it, and the delivery must not be reported compromised.
	e, w, links := reliableRig(t, false, 1)
	w.SendRetries = 6
	links[1].SetLoss(flownet.Loss{Drop: 1})      // node 0 in: every ACK/NACK lost
	links[3].SetLoss(flownet.Loss{Corrupt: 0.5}) // node 1 in: data's last hop
	var compromised bool
	w.OnDeliver = func(_ sim.Time, _, _, _ int, c bool) { compromised = compromised || c }
	src, dst := reliableSendRecv(t, e, w, 4096)
	s := w.Stats()
	if s.Dedups == 0 || s.Corrupts == 0 {
		t.Fatalf("stats = %+v: scenario did not combine dedup with corruption; weak test", s)
	}
	if !payloadEqual(src, dst) {
		t.Error("corrupt spurious retransmission overwrote the accepted payload")
	}
	if compromised || s.Exhausted != 0 {
		t.Errorf("delivery reported compromised (exhausted = %d) despite an accepted clean copy", s.Exhausted)
	}
}

func TestReliableDupNotCountedWhenDropped(t *testing.T) {
	// A dup drawn on an early link followed by a drop on a later link
	// withholds the whole message: no duplicate is ever delivered, so the
	// Dups counter must not tick. With drop=1 downstream of dup=1, every
	// non-final attempt is withheld and only the guaranteed final attempt
	// (drop and dup suppressed) delivers.
	e, w, links := reliableRig(t, false, 7)
	w.SendRetries = 3
	links[0].SetLoss(flownet.Loss{Dup: 1})  // node 0 out: dup drawn first
	links[3].SetLoss(flownet.Loss{Drop: 1}) // node 1 in: then dropped
	src, dst := reliableSendRecv(t, e, w, 4096)
	if !payloadEqual(src, dst) {
		t.Fatal("payload wrong under dup-then-drop")
	}
	s := w.Stats()
	if s.Dups != 0 {
		t.Errorf("dups = %d, want 0: every dup-drawn copy was withheld by a later drop", s.Dups)
	}
	if s.Drops != 2 {
		t.Errorf("drops = %d, want 2 (attempts 0..1)", s.Drops)
	}
}

func TestReliableCudaAwarePath(t *testing.T) {
	e, w, links := reliableRig(t, true, 6)
	w.SendRetries = 4
	links[0].SetLoss(flownet.Loss{Drop: 1})
	const bytes = 1 << 16
	sbuf := w.RT.DeviceAt(0, 0).Malloc(bytes)
	dbuf := w.RT.DeviceAt(1, 0).Malloc(bytes)
	for i := range sbuf.Data() {
		sbuf.Data()[i] = byte(5*i + 2)
	}
	e.Spawn("r0", func(p *sim.Proc) { w.Rank(0).Isend(1, 0, sbuf, 0, bytes).Wait(p) })
	e.Spawn("r1", func(p *sim.Proc) { w.Rank(1).Irecv(0, 0, dbuf, 0, bytes).Wait(p) })
	e.Run()
	if !payloadEqual(sbuf.Data(), dbuf.Data()) {
		t.Fatal("CUDA-aware reliable payload wrong under total drop")
	}
	if s := w.Stats(); s.Retransmits != 3 {
		t.Errorf("retransmits = %d, want 3", s.Retransmits)
	}
}

func TestReliableDeterministicAcrossReruns(t *testing.T) {
	const msgs = 6
	run := func() (Stats, sim.Time, []byte) {
		e, w, links := reliableRig(t, false, 42)
		w.SendRetries = 8
		for _, l := range links {
			l.SetLoss(flownet.Loss{Drop: 0.3, Corrupt: 0.3, Dup: 0.3})
		}
		const bytes = 4096
		sbuf := w.RT.MallocHost(0, 0, bytes)
		dbuf := w.RT.MallocHost(1, 0, msgs*bytes)
		for i := range sbuf.Data() {
			sbuf.Data()[i] = byte(3*i + 1)
		}
		for i := 0; i < msgs; i++ {
			i := i
			e.Spawn("r0", func(p *sim.Proc) { w.Rank(0).Isend(1, i, sbuf, 0, bytes).Wait(p) })
			e.Spawn("r1", func(p *sim.Proc) {
				w.Rank(1).Irecv(0, i, dbuf, int64(i*bytes), bytes).Wait(p)
			})
		}
		e.Run()
		return w.Stats(), e.Now(), dbuf.Data()
	}
	s1, t1, d1 := run()
	s2, t2, d2 := run()
	if s1 != s2 {
		t.Errorf("stats differ across reruns: %+v vs %+v", s1, s2)
	}
	if t1 != t2 {
		t.Errorf("completion time differs across reruns: %v vs %v", t1, t2)
	}
	if !payloadEqual(d1, d2) {
		t.Error("delivered payload differs across reruns")
	}
	if s1.Drops+s1.Corrupts+s1.Dups+s1.AckDrops == 0 {
		t.Error("scenario exercised no faults; weak test")
	}
}

func TestReliableSeedChangesOutcome(t *testing.T) {
	run := func(seed uint64) Stats {
		e, w, links := reliableRig(t, false, seed)
		w.SendRetries = 8
		for _, l := range links {
			l.SetLoss(flownet.Loss{Drop: 0.4, Corrupt: 0.4, Dup: 0.4})
		}
		reliableSendRecv(t, e, w, 4096)
		return w.Stats()
	}
	base := run(1)
	for seed := uint64(2); seed < 16; seed++ {
		if run(seed) != base {
			return
		}
	}
	t.Error("15 different seeds produced identical fault outcomes")
}

// The delivery self-checks key on whether the send buffer had data, not on
// the checksum's value: a payload whose checksum happens to be 0 is still
// checked on both the corrupt and the clean path.
func TestReliableSelfCheckZeroSum(t *testing.T) {
	for _, c := range []struct {
		name    string
		corrupt bool
		landed  uint64 // what the receiver's recomputed checksum reads
		want    string
	}{
		{"corrupt copy hashes like the payload", true, 0, "left the checksum intact"},
		{"clean copy hashes differently", false, 1, "failed its checksum"},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, w, _ := reliableRig(t, false, 1)
			env := &envelope{
				w: w, name: "zero-sum", maxAttempts: 8,
				sum: 0, summed: true,
				commit: func(bool, uint64) {},
				check:  func() uint64 { return c.landed },
			}
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, c.want) {
					t.Errorf("deliver panicked with %q, want a panic containing %q", msg, c.want)
				}
			}()
			env.deliver(0, c.corrupt, false)
		})
	}
}
