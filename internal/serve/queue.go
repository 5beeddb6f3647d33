package serve

import (
	"errors"
	"sync"
)

// DefaultQueueDepth is the queue capacity when Config.QueueDepth is 0.
const DefaultQueueDepth = 1024

// ErrQueueFull is returned by push when the queue is at capacity; the HTTP
// layer maps it to 429 Too Many Requests (backpressure).
var ErrQueueFull = errors.New("serve: job queue full")

// ErrDraining is returned by push after close; the HTTP layer maps it to
// 503 Service Unavailable.
var ErrDraining = errors.New("serve: server is draining")

// fairQueue is a bounded multi-tenant FIFO with round-robin service: each
// tenant has its own FIFO, and workers pop tenants in rotation, so a tenant
// flooding the queue delays only its own jobs — other tenants still get
// their turn every cycle (weighted equal-share fair queueing with unit
// weights).
type fairQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues map[string][]*Job // per-tenant FIFOs
	ring   []string          // tenants with pending jobs, service order
	next   int               // ring index of the next tenant to serve
	size   int               // total queued jobs
	cap    int
	closed bool
}

func newFairQueue(capacity int) *fairQueue {
	if capacity <= 0 {
		capacity = DefaultQueueDepth
	}
	q := &fairQueue{queues: make(map[string][]*Job), cap: capacity}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues a job under its tenant.
func (q *fairQueue) push(j *Job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrDraining
	}
	if q.size >= q.cap {
		return ErrQueueFull
	}
	if _, ok := q.queues[j.Tenant]; !ok {
		q.ring = append(q.ring, j.Tenant)
	}
	q.queues[j.Tenant] = append(q.queues[j.Tenant], j)
	q.size++
	q.cond.Signal()
	return nil
}

// forcePush enqueues ignoring the capacity bound. Recovery uses it: every
// journaled-but-incomplete job was already acknowledged, so capacity
// backpressure no longer applies — refusing one here would lose an ack.
func (q *fairQueue) forcePush(j *Job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrDraining
	}
	if _, ok := q.queues[j.Tenant]; !ok {
		q.ring = append(q.ring, j.Tenant)
	}
	q.queues[j.Tenant] = append(q.queues[j.Tenant], j)
	q.size++
	q.cond.Signal()
	return nil
}

// pop blocks for the next job in tenant rotation; ok=false means the queue
// was closed and fully drained.
func (q *fairQueue) pop() (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.size == 0 {
		if q.closed {
			return nil, false
		}
		q.cond.Wait()
	}
	// Serve the next tenant in the ring that has work (tenants whose FIFO
	// emptied are removed lazily here).
	for {
		if q.next >= len(q.ring) {
			q.next = 0
		}
		tenant := q.ring[q.next]
		fifo := q.queues[tenant]
		if len(fifo) == 0 {
			delete(q.queues, tenant)
			q.ring = append(q.ring[:q.next], q.ring[q.next+1:]...)
			continue
		}
		j := fifo[0]
		q.queues[tenant] = fifo[1:]
		q.size--
		q.next++ // rotate even if this tenant has more work: fairness
		return j, true
	}
}

// remove takes a specific job out of its tenant's FIFO (cancellation).
func (q *fairQueue) remove(j *Job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	fifo := q.queues[j.Tenant]
	for i, queued := range fifo {
		if queued == j {
			q.queues[j.Tenant] = append(fifo[:i:i], fifo[i+1:]...)
			q.size--
			return true
		}
	}
	return false
}

// close stops intake; workers drain the remaining jobs and then pop returns
// ok=false.
func (q *fairQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

// kill stops intake AND discards every queued job — the in-process SIGKILL:
// a dead process would not have drained its queue. Workers' next pop returns
// ok=false immediately.
func (q *fairQueue) kill() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.queues = make(map[string][]*Job)
	q.ring = nil
	q.size = 0
	q.cond.Broadcast()
}

// depth returns the number of queued jobs.
func (q *fairQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}

// full returns the number of queued jobs and whether they fill the queue.
func (q *fairQueue) full() (int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size, q.size >= q.cap
}
