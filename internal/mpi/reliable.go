// Reliable-delivery envelope for inter-node messages.
//
// When World.Reliable is on, every inter-node send is driven through an
// envelope implementing the protocol that defeats a lossy, corrupting wire:
//
//	sender                                receiver
//	  │ attempt n: data flow (fwd path)      │
//	  ├────────────────────────────────────►─┤  per-link fault draws at
//	  │                                      │  flow completion:
//	  │                        drop → withheld (sender RTO retransmits)
//	  │                     corrupt → bytes land flipped, checksum fails,
//	  │                               NACK → retransmit after backoff
//	  │                         dup → second copy arrives, deduplicated
//	  │                               by sequence number, re-ACKed
//	  │ ◄──────────────────────────────────┤  ACK/NACK control flow (rev
//	  │   ACK: done     NACK: attempt n+1     path, itself droppable)
//
// Retransmissions back off exponentially and are capped at SendRetries
// attempts. The final attempt escalates to the transport's reliable channel:
// drop and duplication are suppressed so the protocol always terminates, but
// corruption can still land — the delivery is then accepted *compromised*
// (Stats().Exhausted, OnDeliver with compromised=true) and the exchange
// layer's end-to-end halo verification is the backstop that repairs it.
//
// Determinism: every fault decision and corruption pattern is a pure FNV-1a
// hash of (DeliverySeed, link, endpoints, sequence number, attempt, purpose)
// mapped to [0,1). No shared PRNG stream is consumed, so outcomes do not
// depend on the order concurrent messages sample in: runs are bit-identical
// across reruns, worker counts, and RNG-stream interleavings. All protocol
// state mutates in engine event context; payload byte copies ride the
// deferred executor exactly like unreliable transfers.
package mpi

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"github.com/nodeaware/stencil/internal/checksum"
	"github.com/nodeaware/stencil/internal/cudart"
	"github.com/nodeaware/stencil/internal/flownet"
	"github.com/nodeaware/stencil/internal/sim"
)

// ctlBytes is the wire size of an ACK/NACK control message.
const ctlBytes = 64

// envelope is one reliable inter-node message in flight. Both protocol ends
// live in this one object: the simulation orchestrates sender and receiver
// state machines together, in virtual time.
type envelope struct {
	w           *World
	name        string
	fwd, rev    []*flownet.Link
	bytes       float64
	src, dst    int
	tag         int
	seq         uint64
	sum         uint64             // payloadSum of the payload at send time
	summed      bool               // the send buffer had data, so sum is set
	commit      func(bool, uint64) // land the payload (corrupt verdict, corruption key)
	check       func() uint64      // recompute the landed checksum (nil when deferred/time-only)
	onAccept    func()             // optional: receiver accepted a copy (before the ACK returns)
	onDone      func()
	maxAttempts int
	rtoBase     sim.Time
	backoff     sim.Time

	cur       int  // current attempt number
	accepted  bool // receiver committed an accepted copy
	finished  bool // sender saw the ACK; onDone fired
	advancing bool // a retransmission is already scheduled
	attemptAt sim.Time
	timer     *sim.Event
	flow      *flownet.Flow
}

// hash64 is the deterministic decision hash shared by fault draws and
// corruption keys. It stays FNV-1a + fmix64 although payloads are hashed
// with xxHash64: its values pick which deliveries drop, corrupt and
// duplicate, so changing it would change every lossy run's virtual time.
func (w *World) hash64(link string, src, dst int, seq uint64, attempt int, purpose byte) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], w.DeliverySeed)
	h.Write(b[:])
	h.Write([]byte(link))
	binary.LittleEndian.PutUint64(b[:], uint64(uint32(src))|uint64(uint32(dst))<<32)
	h.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], seq)
	h.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], uint64(attempt))
	h.Write(b[:])
	h.Write([]byte{purpose})
	// FNV-1a's final multiply barely moves the high bits for inputs that
	// differ only in the trailing purpose byte, which would correlate the
	// drop/corrupt/dup draws of one arrival. Finish with a full avalanche
	// (Murmur3 fmix64) so every decision is an independent variate.
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// draw maps one decision hash to a uniform variate in [0,1).
func (w *World) draw(link string, src, dst int, seq uint64, attempt int, purpose byte) float64 {
	return float64(w.hash64(link, src, dst, seq, attempt, purpose)>>11) / (1 << 53)
}

// payloadSum is the envelope's payload checksum.
func payloadSum(data []byte) uint64 { return checksum.Sum64(data) }

// corruptPayload deterministically flips bytes of a landed payload region.
// The XOR masks are nonzero, so every flip changes its byte and a corrupted
// delivery is always detectable by checksum.
func corruptPayload(buf *cudart.Buffer, off, n int64, key uint64) {
	data := buf.Data()
	if data == nil || n <= 0 {
		return
	}
	region := data[off : off+n]
	flips := 1 + int(key%7)
	for i := 0; i < flips; i++ {
		pos := (key>>8 + uint64(i)*2654435761) % uint64(n)
		region[pos] ^= byte(0x5A + 31*i)
	}
}

// reliableSend drives one inter-node message through the envelope under the
// pair's next sequence number. commit is invoked in event context at each
// delivery with the corruption verdict and a per-delivery corruption key;
// onDone fires exactly once, when the sender completes (ACK received).
// check, when non-nil, recomputes the landed payload checksum for the
// post-commit integrity self-checks.
func (w *World) reliableSend(name string, fwd, rev []*flownet.Link, send, recv *Request,
	commit func(corrupt bool, key uint64), check func() uint64, onDone func()) {
	w.reliableSendSeq(name, fwd, rev, send, recv, w.nextSeq(send.rank.ID, recv.rank.ID), commit, check, nil, onDone)
}

// nextSeq consumes the next per-(src, dst) envelope sequence number.
func (w *World) nextSeq(src, dst int) uint64 {
	if w.seqs == nil {
		w.seqs = make(map[[2]int]uint64)
	}
	pair := [2]int{src, dst}
	w.seqs[pair]++
	return w.seqs[pair]
}

// reliableSendSeq is reliableSend with an explicit sequence number and an
// optional acceptance hook. Persistent channels (persistent.go) own their
// sequence state — one monotone counter per channel, kept in a namespace
// disjoint from the per-pair counters — so fault draws depend only on the
// channel and its message index, never on the issue order of unrelated
// messages. onAccept, when non-nil, fires exactly once, in event context, the
// moment the receiver accepts a copy (before the ACK control flow returns to
// the sender); onDone still fires only when the sender sees the ACK.
func (w *World) reliableSendSeq(name string, fwd, rev []*flownet.Link, send, recv *Request,
	seq uint64, commit func(corrupt bool, key uint64), check func() uint64,
	onAccept, onDone func()) {
	env := &envelope{
		w:        w,
		name:     name,
		fwd:      fwd,
		rev:      rev,
		bytes:    float64(send.bytes),
		src:      send.rank.ID,
		dst:      recv.rank.ID,
		tag:      send.tag,
		seq:      seq,
		commit:   commit,
		check:    check,
		onAccept: onAccept,
		onDone:   onDone,
	}
	if data := send.buf.Data(); data != nil {
		env.sum = payloadSum(data[send.off : send.off+send.bytes])
		env.summed = true
	}
	env.maxAttempts = w.SendRetries
	if env.maxAttempts <= 0 {
		env.maxAttempts = DefaultSendRetries
	}
	env.rtoBase = w.SendTimeout
	if env.rtoBase <= 0 {
		// Derive a retransmission timeout from the uncontended transfer time
		// over the path's narrowest hop plus control-message latencies. The
		// headroom absorbs ordinary contention; heavy congestion may still
		// trigger a spurious retransmit, which the receiver deduplicates.
		minCap := math.Inf(1)
		for _, l := range fwd {
			if l.BaseCapacity() < minCap {
				minCap = l.BaseCapacity()
			}
		}
		env.rtoBase = sim.Time(8*env.bytes/minCap) + 16*w.M.Params.MPIInterLatency
	}
	env.backoff = w.SendBackoff
	if env.backoff <= 0 {
		env.backoff = env.rtoBase / 4
	}
	w.stats.Messages++
	if w.OnEnvelopeAlloc != nil {
		w.OnEnvelopeAlloc(envelopeStateBytes)
	}
	env.attempt(0)
}

// envelopeStateBytes approximates the host footprint of one envelope's
// protocol state (the struct, its timer event, and ACK/NACK bookkeeping),
// reported through World.OnEnvelopeAlloc for the cost ledger. A fixed
// estimate keeps the report deterministic and cheap; the interesting signal
// is the count, which is exact.
const envelopeStateBytes = 256

// expBackoff doubles a base duration per attempt, capped at 2^6.
func expBackoff(base sim.Time, n int) sim.Time {
	if n > 6 {
		n = 6
	}
	return base * sim.Time(int64(1)<<n)
}

func (env *envelope) proto(kind, link string, attempt int) {
	if env.w.OnProtocol != nil {
		env.w.OnProtocol(env.w.M.Eng.Now(), kind, link, env.src, env.dst, env.seq, attempt)
	}
}

// attempt starts data attempt n: a fresh flow over the forward path, with an
// RTO timer armed for every attempt but the last (the final attempt's
// delivery is guaranteed, so no timer is needed and the protocol terminates).
func (env *envelope) attempt(n int) {
	if env.finished {
		return
	}
	w := env.w
	env.cur = n
	env.advancing = false
	env.attemptAt = w.M.Eng.Now()
	if n > 0 {
		w.stats.Retransmits++
		env.proto("retransmit", "", n)
	}
	env.flow = w.M.Net.StartFlow(env.name, env.fwd, env.bytes)
	env.flow.Done().OnFire(func() { env.arrive(n) })
	if n < env.maxAttempts-1 {
		env.timer = w.M.Eng.After(expBackoff(env.rtoBase, n), func() { env.timeout(n) })
	} else {
		env.timer = nil
	}
}

// timeout fires when attempt n's RTO expires without an ACK: abort whatever
// is still in flight and retransmit after the backoff.
func (env *envelope) timeout(n int) {
	if env.finished || n != env.cur || env.advancing {
		return
	}
	w := env.w
	if env.flow != nil {
		w.M.Net.Abort(env.flow) // no-op if the data already arrived
	}
	env.recordAttempt(n)
	// A timeout cannot name the guilty hop; charge the whole forward path so
	// health scoring sees trouble on any of its links.
	for _, l := range env.fwd {
		w.linkFault(l)
	}
	env.advance(n, env.backoff)
}

// advance schedules attempt n+1 after delay, exactly once per attempt.
func (env *envelope) advance(n int, delay sim.Time) {
	if env.finished || n != env.cur || env.advancing {
		return
	}
	env.advancing = true
	if env.timer != nil {
		env.timer.Cancel()
		env.timer = nil
	}
	env.w.M.Eng.After(delay, func() { env.attempt(n + 1) })
}

// recordAttempt surfaces retransmitted attempts in the op timeline.
func (env *envelope) recordAttempt(n int) {
	w := env.w
	if n == 0 || w.RT == nil || w.RT.OnOp == nil {
		return
	}
	w.RT.Record(cudart.OpRecord{
		Kind: cudart.OpRetransmit, Name: env.name, Device: -1, Stream: "wire",
		Start: env.attemptAt, End: w.M.Eng.Now(), Bytes: int64(env.bytes),
	})
}

// arrive runs at attempt n's flow completion: sample each lossy link of the
// forward path for drop/corrupt/dup, then deliver what survived.
func (env *envelope) arrive(n int) {
	if env.finished {
		return
	}
	env.recordAttempt(n)
	w := env.w
	final := n >= env.maxAttempts-1
	corrupt := false
	dupLink := ""
	for _, l := range env.fwd {
		ls := l.Loss()
		if ls.Zero() {
			continue
		}
		if !final && ls.Drop > 0 && w.draw(l.Name, env.src, env.dst, env.seq, n, 'D') < ls.Drop {
			w.stats.Drops++
			w.linkFault(l)
			env.proto("drop", l.Name, n)
			return // withheld; the sender's RTO drives a retransmission
		}
		if ls.Corrupt > 0 && w.draw(l.Name, env.src, env.dst, env.seq, n, 'C') < ls.Corrupt {
			if !corrupt {
				w.stats.Corrupts++
			}
			corrupt = true
			w.linkFault(l)
			env.proto("corrupt", l.Name, n)
		}
		if !final && dupLink == "" && ls.Dup > 0 && w.draw(l.Name, env.src, env.dst, env.seq, n, 'P') < ls.Dup {
			// Record only: a later link may still draw a drop and withhold
			// the whole message, in which case no duplicate is delivered and
			// neither the counter nor the event should fire.
			dupLink = l.Name
		}
	}
	if dupLink != "" {
		w.stats.Dups++
		env.proto("dup", dupLink, n)
	}
	env.deliver(n, corrupt, final)
	if dupLink != "" {
		// The duplicate copy trails the original by the wire latency and is
		// deduplicated by sequence number.
		w.M.Eng.After(w.M.Params.MPIInterLatency, func() { env.deliver(n, corrupt, final) })
	}
}

// deliver is the receiver side of one arriving copy.
func (env *envelope) deliver(n int, corrupt, final bool) {
	w := env.w
	if env.accepted {
		// Sequence number already accepted: a duplicate (or a spurious
		// retransmission after a lost ACK). Dedup takes precedence over the
		// copy's corruption verdict — even a corrupt copy must not commit a
		// single byte over the accepted payload. Drop it, re-ACK.
		w.stats.Dedups++
		env.proto("dedup", "", n)
		env.sendCtl(true, n, final)
		return
	}
	key := w.hash64(env.name, env.src, env.dst, env.seq, n, 'K')
	if corrupt && !final {
		// The flipped bytes really land, the checksum mismatch is detected,
		// and the copy is rejected; a clean retransmission overwrites it.
		env.commit(true, key)
		if env.check != nil && env.summed && env.check() == env.sum {
			panic(fmt.Sprintf("mpi: corrupt delivery %s seq %d left the checksum intact", env.name, env.seq))
		}
		w.stats.Nacks++
		env.proto("nack", "", n)
		env.sendCtl(false, n, final)
		return
	}
	env.accepted = true
	env.commit(corrupt, key)
	if corrupt {
		// Attempt cap reached with a corrupt payload: the wire gives up on
		// integrity and delivers what it has. End-to-end verification in the
		// exchange layer is the backstop.
		w.stats.Exhausted++
		env.proto("exhausted", "", n)
	} else if env.check != nil && env.summed && env.check() != env.sum {
		panic(fmt.Sprintf("mpi: clean delivery %s seq %d failed its checksum", env.name, env.seq))
	}
	if env.onAccept != nil {
		env.onAccept()
	}
	if w.OnDeliver != nil {
		w.OnDeliver(w.M.Eng.Now(), env.src, env.dst, env.tag, corrupt)
	}
	env.sendCtl(true, n, final)
}

// sendCtl returns an ACK or NACK to the sender as a real control flow on the
// reverse path, itself subject to drop on lossy links — except after the
// final data attempt, where the transport escalates to its reliable control
// channel so the protocol always terminates.
func (env *envelope) sendCtl(ack bool, n int, final bool) {
	w := env.w
	kind := "ack"
	if !ack {
		kind = "nack"
	}
	f := w.M.Net.StartFlow(env.name+"."+kind, env.rev, ctlBytes)
	f.Done().OnFire(func() {
		if !final {
			for _, l := range env.rev {
				ls := l.Loss()
				if ls.Drop > 0 && w.draw(l.Name, env.src, env.dst, env.seq, n, 'A') < ls.Drop {
					w.stats.AckDrops++
					w.linkFault(l)
					env.proto("ackdrop", l.Name, n)
					return // the sender's RTO covers lost control messages
				}
			}
		}
		if ack {
			env.ackArrived()
		} else {
			env.nackArrived(n)
		}
	})
}

// ackArrived completes the send: cancel the RTO, fire onDone exactly once.
func (env *envelope) ackArrived() {
	if env.finished {
		return
	}
	env.finished = true
	if env.timer != nil {
		env.timer.Cancel()
		env.timer = nil
	}
	env.onDone()
}

// nackArrived reacts to a checksum rejection of attempt n: retransmit after
// the backoff instead of waiting out the full RTO. Stale NACKs (a later
// attempt is already current) are ignored.
func (env *envelope) nackArrived(n int) {
	if env.finished || env.accepted {
		return
	}
	env.advance(n, expBackoff(env.backoff, n))
}
