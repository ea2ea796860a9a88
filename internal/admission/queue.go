package admission

import (
	"errors"
	"slices"
	"sync"
)

// Queue errors.
var (
	// ErrFull rejects a Push when the queue is at capacity — the
	// backpressure signal (service.ErrQueueFull / HTTP 429 upstream).
	ErrFull = errors.New("admission: queue full")
	// ErrQueueClosed rejects a Push after Close.
	ErrQueueClosed = errors.New("admission: queue closed")
)

// Item is one queued unit of work.
type Item struct {
	// ID keys the budget reservation (the job ID).
	ID string
	// Class selects the priority lane.
	Class Class
	// Bytes is the estimated working set reserved against the ledger
	// while the item is dispatched (0 = free).
	Bytes int64
	// Recovered marks a job requeued from the journal on boot, subject to
	// slow-start gating.
	Recovered bool
	// Payload is the caller's job record.
	Payload any
}

// Queue is the admission scheduler: two FIFO priority lanes (interactive,
// batch) drained by Pop with three gates.
//
// Weighted dispatch: when both lanes could run, interactive wins
// interactiveWeight of every interactiveWeight+1 picks, so a flood of batch
// members cannot starve ad-hoc jobs while a steady batch trickle still flows.
//
// Budget gating: an item is dispatched only once its Bytes reserve
// against the Ledger. Within a lane order is strictly FIFO — a head
// waiting for budget blocks its lane (big jobs are not starved by a
// stream of small ones) but never the other lane.
//
// Slow-start: recovered items are additionally capped to a small
// in-flight window that doubles on every successful completion
// (TCP-style), so a rebooted daemon trickles its backlog in instead of
// stampeding. Gated recovered items may be passed over by fresh work
// behind them — recovery must not block new traffic.
type Queue struct {
	capacity int
	ledger   *Ledger

	mu     sync.Mutex
	cond   *sync.Cond
	lanes  map[Class][]*Item
	closed bool
	picks  int64

	ssCap      int // 0 = slow-start inactive
	ssInflight int
}

// interactiveWeight is the class weighting: interactive gets 4 of every 5
// contested picks.
const interactiveWeight = 4

// NewQueue builds a queue of the given capacity over a ledger.
func NewQueue(capacity int, ledger *Ledger) *Queue {
	if ledger == nil {
		ledger = NewLedger(0)
	}
	q := &Queue{
		capacity: capacity,
		ledger:   ledger,
		lanes:    map[Class][]*Item{ClassInteractive: nil, ClassBatch: nil},
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// SetSlowStart arms recovery slow-start with an initial in-flight cap
// (<= 0 disarms). Call before workers start popping.
func (q *Queue) SetSlowStart(initial int) {
	q.mu.Lock()
	if initial < 0 {
		initial = 0
	}
	q.ssCap = initial
	q.mu.Unlock()
	q.cond.Broadcast()
}

// Push enqueues an item on its class lane.
func (q *Queue) Push(it *Item) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrQueueClosed
	}
	if q.capacity > 0 && q.lenLocked() >= q.capacity {
		return ErrFull
	}
	q.lanes[it.Class] = append(q.lanes[it.Class], it)
	q.cond.Signal()
	return nil
}

// Full reports whether a Push would be refused for want of room. Pops and
// Removes only make room, so a caller whose pushes all hold one lock of its
// own can ask first and know, under that lock, that the push will land.
func (q *Queue) Full() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.capacity > 0 && q.lenLocked() >= q.capacity
}

// Pop blocks until an item passes every admission gate (its budget is
// reserved atomically with the dequeue) or the queue is closed and empty,
// in which case it returns false. Callers MUST call Done with the item
// when its work ends, however it ends.
func (q *Queue) Pop() (*Item, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if it := q.pickLocked(); it != nil {
			return it, true
		}
		if q.closed && q.lenLocked() == 0 {
			return nil, false
		}
		q.cond.Wait()
	}
}

// Done releases an item's budget reservation and advances slow-start
// (success doubles the recovered-jobs window). Safe to call exactly once
// per popped item.
func (q *Queue) Done(it *Item, success bool) {
	q.ledger.Release(it.ID)
	q.mu.Lock()
	if it.Recovered && q.ssInflight > 0 {
		q.ssInflight--
	}
	if it.Recovered && success && q.ssCap > 0 {
		q.ssCap *= 2
	}
	q.mu.Unlock()
	q.cond.Broadcast()
}

// Close stops Push. Pop keeps draining what is queued (drain semantics)
// and returns false once the queue is empty.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// Remove takes one still-queued item out of its lane, giving its slot back
// at once, and reports whether it was there: false means a Pop already has
// it, and that Pop's caller owes the Done.
func (q *Queue) Remove(it *Item) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	lane := q.lanes[it.Class]
	i := slices.Index(lane, it)
	if i < 0 {
		return false
	}
	q.lanes[it.Class] = slices.Delete(lane, i, i+1)
	q.cond.Broadcast() // it may have been the head its lane was waiting behind
	return true
}

// SlowStart reports the recovery window: the current in-flight cap (0 =
// inactive) and how many recovered items are dispatched right now.
func (q *Queue) SlowStart() (cap, inflight int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.ssCap, q.ssInflight
}

func (q *Queue) lenLocked() int {
	return len(q.lanes[ClassInteractive]) + len(q.lanes[ClassBatch])
}

// pickLocked tries to admit one item under the caller-held lock.
func (q *Queue) pickLocked() *Item {
	order := [2]Class{ClassInteractive, ClassBatch}
	if q.picks%(interactiveWeight+1) == interactiveWeight {
		order = [2]Class{ClassBatch, ClassInteractive}
	}
	for _, class := range order {
		idx := q.candidateLocked(class)
		if idx < 0 {
			continue
		}
		it := q.lanes[class][idx]
		if !q.ledger.TryReserve(it.ID, it.Bytes) {
			continue // budget-blocked head: its lane waits, the other may go
		}
		q.lanes[class] = append(q.lanes[class][:idx], q.lanes[class][idx+1:]...)
		if it.Recovered {
			q.ssInflight++
		}
		q.picks++
		return it
	}
	return nil
}

// candidateLocked finds the first item of a lane not gated by slow-start.
// FIFO order is preserved except that gated recovered items may be passed
// over — boot recovery must not block fresh traffic queued behind it.
func (q *Queue) candidateLocked(class Class) int {
	for i, it := range q.lanes[class] {
		if it.Recovered && q.ssCap > 0 && q.ssInflight >= q.ssCap {
			continue
		}
		return i
	}
	return -1
}
