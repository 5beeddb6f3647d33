// Persistent envelope channels.
//
// A Channel is a pre-registered point-to-point message path between two
// ranks: the analogue of a persistent/partitioned MPI request
// (MPI_Send_init / MPI_Psend_init). Where Isend/Irecv re-match and re-derive
// protocol state per message, a channel is opened once — per (src, dst, tag)
// — and every Start reuses it: the path, the retransmission parameters, and
// above all the *sequence state*, which survives across iterations and across
// recovery-layer plan rebuilds.
//
// Channel sequence numbers live in their own namespace,
//
//	seq = (tag+1)<<32 | counter
//
// disjoint from the small per-pair counters reliableSend assigns, and
// disjoint between channels of the same rank pair (different tags). Because
// the fault-decision hash excludes the tag, the sequence number *is* the
// channel identity on the wire: a channel's fault draws depend only on its
// own message index, never on how many unrelated messages the pair exchanged
// first. That is what makes overlapped (issue-order-shuffled) runs
// deterministic per channel.
//
// Start separates the two completion events the classic transports conflate:
// onAccept fires when the receiver has committed an accepted copy (the
// payload is usable — border compute may proceed), onDone when the sender has
// seen the ACK (the send buffer may be reused). Overlapped exchanges release
// the receiver at acceptance and let the ACK tail drain in the background.
package mpi

import "github.com/nodeaware/stencil/internal/cudart"

type chanKey struct {
	src, dst, tag int
}

// Channel is a persistent message path from src to dst under one tag.
type Channel struct {
	w        *World
	src, dst *Rank
	tag      int
	counter  uint64 // messages started on this channel, ever
}

// OpenChannel returns the persistent channel (src, dst, tag), creating it on
// first use. Channels are cached on the World for the lifetime of the job —
// in particular across recovery plan rebuilds, so a rebuilt plan that opens
// the same (src, dst, tag) continues the old sequence stream rather than
// restarting it.
func (w *World) OpenChannel(src, dst *Rank, tag int) *Channel {
	if w.channels == nil {
		w.channels = make(map[chanKey]*Channel)
	}
	key := chanKey{src: src.ID, dst: dst.ID, tag: tag}
	if c, ok := w.channels[key]; ok {
		return c
	}
	c := &Channel{w: w, src: src, dst: dst, tag: tag}
	w.channels[key] = c
	return c
}

// Seq returns the next sequence number without consuming it (testing hook).
func (c *Channel) Seq() uint64 { return (uint64(c.tag+1) << 32) | (c.counter + 1) }

// Start drives one message of the channel: bytes from sendBuf[sendOff:] into
// recvBuf[recvOff:], over the host transport Isend/Irecv pairs use (see
// hostTransfer) under the channel's own sequence number. It reports
// completion in two stages: onAccept fires in event context when the
// receiver has committed an accepted copy, onDone when the sender side is
// fully done (inter-node under Reliable: the ACK arrived; otherwise both fire
// together). Both callbacks are required.
func (c *Channel) Start(sendBuf *cudart.Buffer, sendOff int64, recvBuf *cudart.Buffer, recvOff, bytes int64,
	onAccept, onDone func()) {
	c.src.checkDeactivated(c.dst.ID)
	c.counter++
	seq := (uint64(c.tag+1) << 32) | c.counter
	send := &Request{rank: c.src, buf: sendBuf, off: sendOff, bytes: bytes, tag: c.tag}
	recv := &Request{rank: c.dst, buf: recvBuf, off: recvOff, bytes: bytes, tag: c.tag}
	c.w.hostTransfer(send, recv, seq, onAccept, onDone)
}
