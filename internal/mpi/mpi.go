// Package mpi is a simulated Message Passing Interface for the machine
// model.
//
// Ranks are simulated processes placed on nodes and sockets. The package
// provides the non-blocking point-to-point operations the paper's library
// uses (Isend/Irecv/Wait), a barrier, and two transports:
//
//   - Host transport: messages between pinned host buffers. Intra-node
//     messages are shared-memory copies that occupy the receiving rank's
//     serial progress engine for their duration — this is why one rank
//     driving six GPUs is the slowest STAGED configuration and six ranks the
//     fastest (paper Fig 12a). Inter-node messages cross the NIC links and
//     only briefly occupy the progress engine.
//
//   - CUDA-aware transport: device buffers passed straight to MPI. Per the
//     paper's profiling (§IV-D), the implementation routes its internal
//     copies through the device's legacy default stream (which synchronizes
//     with all other streams on the device) and issues device-wide
//     synchronization per message, re-exchanging buffer handles every time.
//     These pathologies are modelled explicitly and are what make CUDA-aware
//     weak scaling degrade in Fig 12c.
package mpi

import (
	"fmt"
	"math"

	"github.com/nodeaware/stencil/internal/cudart"
	"github.com/nodeaware/stencil/internal/flownet"
	"github.com/nodeaware/stencil/internal/machine"
	"github.com/nodeaware/stencil/internal/sim"
)

// World is a communicator covering all ranks of a job.
type World struct {
	M         *machine.Machine
	RT        *cudart.Runtime
	CUDAAware bool
	ranks     []*Rank

	// SendTimeout enables timeout/retry semantics for inter-node messages:
	// a wire transfer still incomplete after this much virtual time is
	// aborted and re-driven from the start (modelling transport-level
	// retransmission after a NIC or link fault). Zero disables retries.
	SendTimeout sim.Time
	// SendBackoff is the wait between retry attempts; zero uses SendTimeout.
	SendBackoff sim.Time
	// SendRetries caps the number of retry attempts per message; after the
	// cap the message is driven to completion without further aborts (the
	// simulation never loses a message — a crawling link is eventually
	// restored or the flow's residual trickle finishes). Zero means 8.
	// Hitting the cap is a real hazard — the final attempt runs with no
	// deadline — so it is counted in Stats().RetryExhausted and reported
	// through OnRetryExhausted rather than passing silently. The same value
	// caps the reliable-delivery envelope's attempts (see Reliable).
	SendRetries int
	// Retries counts retry attempts actually taken, for reporting.
	Retries int
	// OnRetry, when set, observes every timed-out-and-aborted send attempt
	// (the wire transfer's name and the 1-based attempt number that was
	// abandoned). Must be passive: telemetry, not control flow.
	OnRetry func(t sim.Time, name string, attempt int)
	// OnRetryExhausted, when set, observes every send whose retry budget ran
	// out, at the moment the unabortable final attempt starts (attempts is
	// the number of aborted attempts that preceded it). Must be passive.
	OnRetryExhausted func(t sim.Time, name string, attempts int)

	// Reliable enables the reliable-delivery envelope for inter-node
	// messages: per-message checksums and sequence numbers, receiver-side
	// dedup, ACK/NACK control flows, and retransmission under exponential
	// backoff with an attempt cap (see reliable.go). Armed automatically
	// when a fault scenario containing delivery faults is installed; it can
	// also be forced on to measure protocol overhead on a clean network.
	Reliable bool
	// DeliverySeed keys the deterministic hash-based PRNG behind delivery
	// faults and corruption patterns. Every decision hashes
	// (seed, link, endpoints, sequence, attempt, purpose), so outcomes are
	// independent of the order concurrent messages sample in — bit-identical
	// across reruns, worker counts, and RNG-stream interleavings.
	DeliverySeed uint64
	// OnProtocol, when set, observes reliable-envelope protocol actions
	// (drop, corrupt, dup, dedup, retransmit, nack, ackdrop, exhausted).
	// link is empty for end-to-end actions. Must be passive.
	OnProtocol func(t sim.Time, kind, link string, src, dst int, seq uint64, attempt int)
	// OnEnvelopeAlloc, when set, observes every reliable-envelope
	// allocation (one per inter-node message when Reliable is on) with the
	// approximate host bytes its protocol state retains while in flight.
	// Must be passive: the cost ledger reads it, nothing else may.
	OnEnvelopeAlloc func(bytes int64)
	// OnDeliver, when set, observes every reliable-envelope acceptance.
	// compromised marks a delivery that exhausted its attempt cap with a
	// corrupt payload — the wire gave up on integrity and the exchange
	// layer's end-to-end verification is the backstop. Must be passive.
	OnDeliver func(t sim.Time, src, dst, tag int, compromised bool)

	stats      Stats
	seqs       map[[2]int]uint64     // per-(src,dst) send sequence numbers
	channels   map[chanKey]*Channel  // persistent envelope channels (persistent.go)
	linkFaults map[*flownet.Link]int // protocol faults charged per link

	barrierCount int
	barrierSig   *sim.Signal

	// active counts ranks still participating in barriers and allreduces;
	// deactivated marks ranks evicted by the recovery layer after a
	// permanent failure.
	active      int
	deactivated []bool
}

// Rank is one MPI process.
type Rank struct {
	world  *World
	ID     int
	Node   int
	Socket int
	// progress is the rank's serial MPI progress engine.
	progress *sim.Resource
	// failed marks the rank's process as permanently dead (fault.RankFail).
	failed bool
	// copyEngine bounds the rank's shared-memory copy rate to one core's
	// memcpy bandwidth; recruiting more ranks recruits more copy engines.
	copyEngine *flownet.Link
	// Posted receives and unexpected sends, keyed by (src, tag).
	recvs map[matchKey][]*Request
	sends map[matchKey][]*Request
}

type matchKey struct {
	peer int // the other rank
	tag  int
}

// NewWorld creates ranksPerNode ranks on every node of the machine. Ranks
// are block-distributed: rank r lives on node r/ranksPerNode, and its host
// buffers and progress engine sit on socket
// (r mod ranksPerNode) * sockets / ranksPerNode.
func NewWorld(m *machine.Machine, rt *cudart.Runtime, ranksPerNode int, cudaAware bool) *World {
	if ranksPerNode < 1 {
		panic(fmt.Sprintf("mpi: ranksPerNode %d", ranksPerNode))
	}
	w := &World{M: m, RT: rt, CUDAAware: cudaAware}
	for n := range m.Nodes {
		sockets := m.Nodes[n].Config.Sockets
		for l := 0; l < ranksPerNode; l++ {
			id := n*ranksPerNode + l
			r := &Rank{
				world:      w,
				ID:         id,
				Node:       n,
				Socket:     l * sockets / ranksPerNode,
				progress:   sim.NewResource(m.Eng, fmt.Sprintf("rank%d.progress", id), 1),
				copyEngine: flownet.NewLink(fmt.Sprintf("rank%d.copy", id), m.Params.ShmCopyBW),
				recvs:      make(map[matchKey][]*Request),
				sends:      make(map[matchKey][]*Request),
			}
			w.ranks = append(w.ranks, r)
		}
	}
	w.active = len(w.ranks)
	w.deactivated = make([]bool, len(w.ranks))
	return w
}

// Stats is a snapshot of the world's transport counters. Retries covers the
// legacy timeout/abort policy; the remaining protocol counters are produced
// by the reliable-delivery envelope (Reliable).
type Stats struct {
	Retries        int // timed-out-and-aborted send attempts (startFlowRetry)
	RetryExhausted int // sends whose capped final attempt ran unaborted
	Messages       int // messages driven through the reliable envelope
	Retransmits    int // envelope retransmissions (RTO expiry or NACK)
	Drops          int // data deliveries withheld by a lossy link
	AckDrops       int // control deliveries withheld by a lossy link
	Corrupts       int // deliveries with flipped payload bytes
	Dups           int // deliveries duplicated by a lossy link
	Dedups         int // duplicate deliveries suppressed by sequence number
	Nacks          int // checksum-mismatch rejections sent by the receiver
	Exhausted      int // deliveries accepted compromised after the attempt cap
}

// Stats returns a snapshot of the world's transport counters.
func (w *World) Stats() Stats {
	s := w.stats
	s.Retries = w.Retries
	return s
}

// linkFault charges one protocol fault (drop, corruption, or timeout) to a
// link, for health scoring.
func (w *World) linkFault(l *flownet.Link) {
	if w.linkFaults == nil {
		w.linkFaults = make(map[*flownet.Link]int)
	}
	w.linkFaults[l]++
}

// LinkFaults returns the cumulative protocol faults charged to the link:
// messages dropped or corrupted on it, plus timeouts charged to every link of
// the timed-out path (a timeout cannot name the guilty hop). Health scoring
// in the exchange layer consumes deltas of this counter.
func (w *World) LinkFaults(l *flownet.Link) int { return w.linkFaults[l] }

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Rank returns rank id.
func (w *World) Rank(id int) *Rank { return w.ranks[id] }

// Fail marks the rank's process permanently dead (fail-stop). The rank may
// keep "executing" in virtual time until the failure is detected — the
// zombie window — so messaging still works; the recovery layer converts the
// flag into a Deactivate at its next consistency point.
func (r *Rank) Fail() { r.failed = true }

// Failed reports whether Fail has been called.
func (r *Rank) Failed() bool { return r.failed }

// Deactivate evicts a rank from the collectives: subsequent Barrier and
// Allreducer calls complete once every *active* rank has arrived, and the
// evicted rank must not call them (or Isend/Irecv) again. It must be called
// at a point where no rank is parked inside a barrier or allreduce —
// between iterations, at the exchange layer's recovery line.
func (w *World) Deactivate(id int) {
	if w.deactivated[id] {
		return
	}
	if w.barrierCount != 0 {
		panic(fmt.Sprintf("mpi: Deactivate(%d) with %d ranks parked in a barrier", id, w.barrierCount))
	}
	w.deactivated[id] = true
	w.active--
	if w.active < 1 {
		panic("mpi: every rank deactivated")
	}
}

// Deactivated reports whether the rank has been evicted from collectives.
func (w *World) Deactivated(id int) bool { return w.deactivated[id] }

// ActiveSize returns the number of ranks still participating in collectives.
func (w *World) ActiveSize() int { return w.active }

// Wtime returns the current virtual time (MPI_Wtime).
func (w *World) Wtime() sim.Time { return w.M.Eng.Now() }

// Request is a pending non-blocking operation (MPI_Request).
type Request struct {
	done   *sim.Signal
	rank   *Rank
	buf    *cudart.Buffer
	off    int64
	bytes  int64
	tag    int
	isSend bool
}

// Wait parks the process until the operation completes (MPI_Wait).
func (r *Request) Wait(p *sim.Proc) { r.done.Wait(p) }

// Test reports whether the operation has completed (MPI_Test).
func (r *Request) Test() bool { return r.done.Fired() }

// Done exposes the completion signal (for WaitAny-style polling loops).
func (r *Request) Done() *sim.Signal { return r.done }

// Waitall parks the process until every request completes (MPI_Waitall).
func Waitall(p *sim.Proc, reqs ...*Request) {
	for _, r := range reqs {
		r.Wait(p)
	}
}

// Isend posts a non-blocking send of bytes from buf[off:] to rank dst with
// the given tag. The buffer may be a pinned host buffer or, when the world
// is CUDA-aware, a device buffer.
func (r *Rank) Isend(dst, tag int, buf *cudart.Buffer, off, bytes int64) *Request {
	r.checkDeactivated(dst)
	r.checkBuf(buf)
	req := &Request{
		done:   sim.NewSignal(r.world.M.Eng, "mpi.send"),
		rank:   r,
		buf:    buf,
		off:    off,
		bytes:  bytes,
		tag:    tag,
		isSend: true,
	}
	key := matchKey{peer: r.ID, tag: tag}
	dr := r.world.ranks[dst]
	if lst := dr.recvs[key]; len(lst) > 0 {
		recv := lst[0]
		dr.recvs[key] = lst[1:]
		r.world.transfer(req, recv)
	} else {
		dr.sends[key] = append(dr.sends[key], req)
	}
	return req
}

// Irecv posts a non-blocking receive into buf[off:] from rank src with the
// given tag.
func (r *Rank) Irecv(src, tag int, buf *cudart.Buffer, off, bytes int64) *Request {
	r.checkDeactivated(src)
	r.checkBuf(buf)
	req := &Request{
		done:  sim.NewSignal(r.world.M.Eng, "mpi.recv"),
		rank:  r,
		buf:   buf,
		off:   off,
		bytes: bytes,
		tag:   tag,
	}
	key := matchKey{peer: src, tag: tag}
	if lst := r.sends[key]; len(lst) > 0 {
		send := lst[0]
		r.sends[key] = lst[1:]
		r.world.transfer(send, req)
	} else {
		r.recvs[key] = append(r.recvs[key], req)
	}
	return req
}

// PauseProgress occupies the rank's serial MPI progress engine for d virtual
// seconds, modelling an OS-noise stall or a hung progress thread: queued
// shared-memory receives and per-message CPU work wait it out. The pause is
// asynchronous; it queues FIFO behind in-flight progress work.
func (r *Rank) PauseProgress(d sim.Time) {
	eng := r.world.M.Eng
	eng.Go(func() {
		r.progress.AcquireThen(func() { eng.SleepThen(d, r.progress.Release) })
	})
}

// checkDeactivated panics when either endpoint of a message has been evicted
// by the recovery layer: post-recovery transfer plans must never reference a
// dead rank, so any such message is a bug surfaced immediately. (A *failed*
// but not-yet-deactivated rank may still message — that is the zombie
// window before detection.)
func (r *Rank) checkDeactivated(peer int) {
	if r.world.deactivated[r.ID] {
		panic(fmt.Sprintf("mpi: message posted by deactivated rank %d", r.ID))
	}
	if r.world.deactivated[peer] {
		panic(fmt.Sprintf("mpi: rank %d posted a message to deactivated rank %d", r.ID, peer))
	}
}

func (r *Rank) checkBuf(buf *cudart.Buffer) {
	if buf.Host() {
		return
	}
	if buf.Device() == nil {
		panic("mpi: buffer is neither host nor device")
	}
	if !r.world.CUDAAware {
		panic("mpi: device buffer passed to MPI without CUDA-aware support")
	}
}

// transfer moves the message. The smaller of send.bytes/recv.bytes is
// transferred (MPI truncation is an application error; we require equality).
func (w *World) transfer(send, recv *Request) {
	if send.bytes != recv.bytes {
		panic(fmt.Sprintf("mpi: message size mismatch: send %d recv %d", send.bytes, recv.bytes))
	}
	deviceMsg := !send.buf.Host() || !recv.buf.Host()
	if deviceMsg {
		w.cudaAwareTransfer(send, recv)
		return
	}
	w.hostTransfer(send, recv, 0, nil, func() {
		send.done.Fire()
		recv.done.Fire()
	})
}

// startFlowRetry starts a wire transfer under the world's timeout/retry
// policy and invokes onDone exactly once, when an attempt finally completes.
// With retries disabled it degenerates to a plain flow. An attempt that is
// still in flight after SendTimeout is aborted (bytes moved so far are
// discarded, as a transport retransmission would) and re-driven after the
// backoff; past the retry cap the last attempt runs to completion unaborted.
func (w *World) startFlowRetry(name string, path []*flownet.Link, bytes float64, onDone func()) {
	eng := w.M.Eng
	if w.SendTimeout <= 0 {
		f := w.M.Net.StartFlow(name, path, bytes)
		f.Done().OnFire(onDone)
		return
	}
	backoff := w.SendBackoff
	if backoff <= 0 {
		backoff = w.SendTimeout
	}
	maxRetries := w.SendRetries
	if maxRetries <= 0 {
		maxRetries = 8
	}
	var attempt func(n int)
	attempt = func(n int) {
		f := w.M.Net.StartFlow(name, path, bytes)
		f.Done().OnFire(onDone)
		if n >= maxRetries {
			// Retry budget exhausted: this final attempt has no deadline and
			// is never aborted — on a crawling link it rides the residual
			// trickle to completion, however long that takes. Surface the
			// hazard instead of letting it pass silently.
			w.stats.RetryExhausted++
			if w.OnRetryExhausted != nil {
				w.OnRetryExhausted(eng.Now(), name, n)
			}
			return
		}
		eng.After(w.SendTimeout, func() {
			if f.Done().Fired() {
				return
			}
			w.M.Net.Abort(f)
			w.Retries++
			// A timeout cannot name the guilty hop; charge the whole path so
			// health scoring sees trouble on any of its links.
			for _, l := range path {
				w.linkFault(l)
			}
			if w.OnRetry != nil {
				w.OnRetry(eng.Now(), name, n+1)
			}
			eng.After(backoff, func() { attempt(n + 1) })
		})
	}
	attempt(0)
}

// transferThen is startFlowRetry for continuation code: next runs where a
// process that started the wire transfer and parked until it landed would
// resume. Without retries the flow's own completion signal is the only
// thing to wait for.
func (w *World) transferThen(name string, path []*flownet.Link, bytes float64, next func()) {
	if w.SendTimeout <= 0 {
		w.M.Net.StartFlow(name, path, bytes).Done().Then(next)
		return
	}
	done := sim.NewSignal(w.M.Eng, "mpi.retrydone")
	w.startFlowRetry(name, path, bytes, done.Fire)
	done.Then(next)
}

// hostTransfer is the host-buffer transport, shared by Isend/Irecv pairs and
// persistent channels. It drives one message as a continuation chain with
// the cost structure of the paper's host MPI: latency (plus a rendezvous
// above the eager limit), then the receiving rank's serial progress engine,
// then either a shared-memory copy that holds the progress engine for its
// duration (intra-node) or per-message CPU work followed by the NIC wire
// transfer, under the retry policy or the reliable-delivery envelope.
//
// seq is the envelope's sequence number; 0 takes the next per-pair number
// when the envelope starts. onAccept, when non-nil, fires once the receiver
// has committed an accepted copy; onDone fires when the message is complete
// on both sides (under Reliable: the sender saw the ACK). Without the
// envelope the two fire together.
func (w *World) hostTransfer(send, recv *Request, seq uint64, onAccept, onDone func()) {
	p := w.M.Params
	eng := w.M.Eng
	srcRank, dstRank := send.rank, recv.rank
	intra := srcRank.Node == dstRank.Node
	name := "mpi.nic"
	if intra {
		name = "mpi.shm"
	}
	var start sim.Time
	land := func() {
		commitCopy(recv.buf, recv.off, send.buf, send.off, send.bytes)
		if onAccept != nil {
			onAccept()
		}
	}
	finish := func() {
		if w.RT != nil && w.RT.OnOp != nil {
			// Host-side staging copies are CPU work a profiler would
			// attribute to MPI; surface them in the op timeline too.
			w.RT.Record(cudart.OpRecord{
				Kind: cudart.OpMemcpyH2H, Name: name, Device: -1,
				Stream: "host", Start: start, End: eng.Now(), Bytes: send.bytes,
			})
		}
		onDone()
	}
	progress := dstRank.progress
	eng.Go(func() {
		lat := p.MPIInterLatency
		if intra {
			lat = p.MPIIntraLatency
		}
		if float64(send.bytes) > p.EagerLimit {
			lat += p.RendezvousCost
		}
		eng.SleepThen(lat, func() {
			path := w.M.HostToHostPath(srcRank.Node, srcRank.Socket, dstRank.Node, dstRank.Socket)
			start = eng.Now()
			if intra {
				// Shared-memory copy: occupies the receiving rank's progress
				// engine for the duration of the copy, at the rate of one
				// core's copy loop.
				progress.AcquireThen(func() {
					f := w.M.Net.StartFlow(name, append(path, dstRank.copyEngine), float64(send.bytes))
					f.Done().Then(func() {
						progress.Release()
						land()
						finish()
					})
				})
				return
			}
			// NIC DMA: the progress engine is held only for per-message CPU
			// work; the wire transfer proceeds without it.
			progress.AcquireThen(func() {
				eng.SleepThen(p.MPIIntraLatency, func() {
					progress.Release()
					if !w.Reliable {
						w.transferThen(name, path, float64(send.bytes), func() {
							land()
							finish()
						})
						return
					}
					// Under the reliable-delivery envelope the payload is
					// committed (possibly more than once, possibly corrupted
					// and then overwritten) at each delivery; the chain
					// resumes when the sender sees the ACK. The landed-
					// checksum self-check is possible because the commit is
					// synchronous.
					rev := w.M.HostToHostPath(dstRank.Node, dstRank.Socket, srcRank.Node, srcRank.Socket)
					var check func() uint64
					if data := recv.buf.Data(); data != nil {
						check = func() uint64 { return payloadSum(data[recv.off : recv.off+recv.bytes]) }
					}
					s := seq
					if s == 0 {
						s = w.nextSeq(srcRank.ID, dstRank.ID)
					}
					acked := sim.NewSignal(eng, "mpi.reliable")
					w.reliableSendSeq(name, path, rev, send, recv, s, func(corrupt bool, key uint64) {
						commitCopy(recv.buf, recv.off, send.buf, send.off, send.bytes)
						if corrupt {
							corruptPayload(recv.buf, recv.off, send.bytes, key)
						}
					}, check, onAccept, acked.Fire)
					acked.Then(finish)
				})
			})
		})
	})
}

// cudaAwareTransfer implements the device-buffer transport with the paper's
// observed pathologies: per-message handle exchange, internal copies on the
// legacy default stream (device-wide serialization), chunked pipelining with
// per-chunk issue cost, and a device synchronization per message. Like the
// host transport it runs as a continuation chain.
func (w *World) cudaAwareTransfer(send, recv *Request) {
	p := w.M.Params
	sdev, ddev := send.buf.Device(), recv.buf.Device()
	if sdev == nil || ddev == nil {
		panic("mpi: CUDA-aware transfer requires device buffers on both sides")
	}
	srcRank, dstRank := send.rank, recv.rank
	intra := srcRank.Node == dstRank.Node
	eng := w.M.Eng
	eng.Go(func() {
		lat := p.MPIInterLatency
		if intra {
			lat = p.MPIIntraLatency
		}
		if float64(send.bytes) > p.EagerLimit {
			lat += p.RendezvousCost
		}
		// Per-message buffer registration / IPC handle exchange, every time
		// (the paper's COLOCATEDMEMCPY wins precisely because it does this
		// once at setup).
		eng.SleepThen(lat+p.CudaAwarePerMsg, func() {
			path := w.M.DevToDevRemotePath(sdev.Node, sdev.Local, ddev.Node, ddev.Local)
			chunks := int64(math.Ceil(float64(send.bytes) / p.CudaAwareChunk))
			if chunks < 1 {
				chunks = 1
			}
			issue := sim.Time(float64(chunks)) * p.CudaAwareChunkCost

			// Legacy default stream semantics: the internal copy cannot
			// begin until all currently enqueued work on the sending device
			// has drained, and it serializes against the device's other
			// CUDA-aware messages via the default stream.
			copyDone := sdev.DefaultStream().Enqueue(func(done *sim.Signal) {
				eng.After(issue, func() {
					// Pure payload: run the byte copy on the deferred
					// executor under both devices' keys; completion signals
					// and protocol decisions stay in event context.
					commit := func(corrupt bool, key uint64) {
						eng.Defer(func() {
							commitCopy(recv.buf, recv.off, send.buf, send.off, send.bytes)
							if corrupt {
								corruptPayload(recv.buf, recv.off, send.bytes, key)
							}
						}, int32(sdev.ID), int32(ddev.ID))
					}
					if w.Reliable && !intra {
						rev := w.M.DevToDevRemotePath(ddev.Node, ddev.Local, sdev.Node, sdev.Local)
						w.reliableSend("mpi.ca", path, rev, send, recv, commit, nil, done.Fire)
					} else {
						w.startFlowRetry("mpi.ca", path, float64(send.bytes), func() {
							commit(false, 0)
							done.Fire()
						})
					}
				})
			}, sdev.AllWorkEvent())
			// The destination's default stream observes the arrival, then
			// both sides pay a device-wide synchronization, source first.
			ddev.DefaultStream().WaitEvent(copyDone)
			copyDone.Then(func() {
				eng.SleepThen(p.CudaAwareSyncCost, func() {
					sdev.SynchronizeThen(func() {
						ddev.SynchronizeThen(func() {
							send.done.Fire()
							recv.done.Fire()
						})
					})
				})
			})
		})
	})
}

func commitCopy(dst *cudart.Buffer, dstOff int64, src *cudart.Buffer, srcOff, bytes int64) {
	if dst.Data() != nil && src.Data() != nil {
		copy(dst.Data()[dstOff:dstOff+bytes], src.Data()[srcOff:srcOff+bytes])
	}
}

// Barrier parks the process until every rank has entered the barrier
// (MPI_Barrier). The cost is a log2(n) latency tree.
func (w *World) Barrier(p *sim.Proc) {
	if w.barrierSig == nil {
		w.barrierSig = sim.NewSignal(w.M.Eng, "mpi.barrier")
	}
	w.barrierCount++
	sig := w.barrierSig
	if w.barrierCount == w.active {
		w.barrierCount = 0
		w.barrierSig = nil
		lat := w.M.Params.MPIInterLatency * sim.Time(math.Ceil(math.Log2(float64(w.active))+1))
		w.M.Eng.After(lat, sig.Fire)
		sig.Wait(p)
		return
	}
	sig.Wait(p)
}

// allreduceState is one in-flight max-allreduce over one float64 per rank,
// which the harness uses to agree on the slowest rank's exchange time, the
// quantity the paper reports.
type allreduceState struct {
	count int
	max   float64
	sig   *sim.Signal
}

// Allreducer coordinates repeated max-allreduces across ranks.
type Allreducer struct {
	w  *World
	st *allreduceState
}

// NewAllreducer creates an allreducer over the world.
func NewAllreducer(w *World) *Allreducer { return &Allreducer{w: w} }

// MaxFloat contributes v and parks until all ranks have contributed, then
// returns the global maximum.
func (a *Allreducer) MaxFloat(p *sim.Proc, v float64) float64 {
	if a.st == nil {
		a.st = &allreduceState{sig: sim.NewSignal(a.w.M.Eng, "mpi.allreduce"), max: math.Inf(-1)}
	}
	st := a.st
	st.count++
	if v > st.max {
		st.max = v
	}
	if st.count == a.w.active {
		a.st = nil
		lat := a.w.M.Params.MPIInterLatency * sim.Time(math.Ceil(math.Log2(float64(a.w.active))+1))
		a.w.M.Eng.After(lat, st.sig.Fire)
	}
	st.sig.Wait(p)
	return st.max
}
