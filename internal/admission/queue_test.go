package admission

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func popOrTimeout(t *testing.T, q *Queue) *Item {
	t.Helper()
	ch := make(chan *Item, 1)
	go func() {
		it, ok := q.Pop()
		if !ok {
			ch <- nil
			return
		}
		ch <- it
	}()
	select {
	case it := <-ch:
		if it == nil {
			t.Fatal("queue closed unexpectedly")
		}
		return it
	case <-time.After(5 * time.Second):
		t.Fatal("Pop did not return")
		return nil
	}
}

func TestQueueFIFOWithinClass(t *testing.T) {
	q := NewQueue(10, nil)
	for i := 0; i < 5; i++ {
		if err := q.Push(&Item{ID: fmt.Sprint(i), Class: ClassInteractive}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if it := popOrTimeout(t, q); it.ID != fmt.Sprint(i) {
			t.Fatalf("pop %d returned %s, want FIFO order", i, it.ID)
		}
	}
}

func TestQueueWeightedDispatch(t *testing.T) {
	q := NewQueue(0, nil)
	for i := 0; i < 10; i++ {
		q.Push(&Item{ID: fmt.Sprintf("i%d", i), Class: ClassInteractive})
		q.Push(&Item{ID: fmt.Sprintf("b%d", i), Class: ClassBatch})
	}
	// Weight 4: batch wins every 5th contested pick, so ten pops yield
	// exactly two batch items — batch flows but cannot starve interactive.
	var batch int
	for i := 0; i < 10; i++ {
		if it := popOrTimeout(t, q); it.Class == ClassBatch {
			batch++
		}
	}
	if batch != 2 {
		t.Fatalf("10 contested pops admitted %d batch items, want 2", batch)
	}
	q.mu.Lock()
	iv, bv := len(q.lanes[ClassInteractive]), len(q.lanes[ClassBatch])
	q.mu.Unlock()
	if iv != 2 || bv != 8 {
		t.Fatalf("depths after pops: interactive=%d batch=%d, want 2/8", iv, bv)
	}
}

func TestQueueBudgetBlocksOnlyItsLane(t *testing.T) {
	q := NewQueue(0, NewLedger(100))
	q.Push(&Item{ID: "big0", Class: ClassBatch, Bytes: 80})
	q.Push(&Item{ID: "big1", Class: ClassBatch, Bytes: 80})
	q.Push(&Item{ID: "small", Class: ClassInteractive, Bytes: 10})

	first := popOrTimeout(t, q) // interactive lane wins the first pick
	if first.ID != "small" {
		t.Fatalf("first pop = %s, want small", first.ID)
	}
	second := popOrTimeout(t, q)
	if second.ID != "big0" {
		t.Fatalf("second pop = %s, want big0", second.ID)
	}
	// big1 (80B) cannot fit in the remaining 10B: Pop must block, not skip.
	blocked := make(chan *Item, 1)
	go func() {
		it, _ := q.Pop()
		blocked <- it
	}()
	select {
	case it := <-blocked:
		t.Fatalf("over-budget item %v dispatched", it)
	case <-time.After(100 * time.Millisecond):
	}
	q.Done(first, true) // releases 10B; still not enough for big1
	select {
	case it := <-blocked:
		t.Fatalf("item %v dispatched with only 30B free", it)
	case <-time.After(100 * time.Millisecond):
	}
	q.Done(second, true) // releases 80B
	select {
	case it := <-blocked:
		if it.ID != "big1" {
			t.Fatalf("unblocked pop = %s, want big1", it.ID)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Pop stayed blocked after budget freed")
	}
	if s := q.ledger.Snapshot(); s.HighWaterBytes > 100 {
		t.Fatalf("ledger exceeded budget: high water %d", s.HighWaterBytes)
	}
}

func TestQueueSlowStart(t *testing.T) {
	q := NewQueue(0, nil)
	q.SetSlowStart(1)
	q.Push(&Item{ID: "r1", Class: ClassBatch, Recovered: true})
	q.Push(&Item{ID: "r2", Class: ClassBatch, Recovered: true})
	q.Push(&Item{ID: "r3", Class: ClassBatch, Recovered: true})
	q.Push(&Item{ID: "fresh", Class: ClassBatch})

	first := popOrTimeout(t, q)
	if first.ID != "r1" {
		t.Fatalf("first pop = %s, want r1", first.ID)
	}
	// Window full: r2/r3 are gated, but fresh work behind them passes.
	if it := popOrTimeout(t, q); it.ID != "fresh" {
		t.Fatalf("gated recovery blocked fresh work, popped %s", it.ID)
	}
	blocked := make(chan *Item, 1)
	go func() {
		it, _ := q.Pop()
		blocked <- it
	}()
	select {
	case it := <-blocked:
		t.Fatalf("recovered item %v dispatched past the slow-start cap", it)
	case <-time.After(100 * time.Millisecond):
	}
	q.Done(first, true) // success doubles the window to 2
	if it := <-blocked; it.ID != "r2" {
		t.Fatalf("post-double pop = %s, want r2", it.ID)
	}
	if it := popOrTimeout(t, q); it.ID != "r3" {
		t.Fatalf("window of 2 should admit r3 immediately")
	}
	if cap, inflight := q.SlowStart(); cap != 2 || inflight != 2 {
		t.Fatalf("slow-start cap=%d inflight=%d, want 2/2", cap, inflight)
	}
}

func TestQueueCloseDrains(t *testing.T) {
	q := NewQueue(0, nil)
	q.Push(&Item{ID: "a", Class: ClassInteractive})
	q.Push(&Item{ID: "b", Class: ClassBatch})
	q.Close()
	if err := q.Push(&Item{ID: "c", Class: ClassInteractive}); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("push after close: %v, want ErrQueueClosed", err)
	}
	for _, want := range []string{"a", "b"} {
		it, ok := q.Pop()
		if !ok || it.ID != want {
			t.Fatalf("drain pop = %v/%v, want %s", it, ok, want)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on closed empty queue must return false")
	}
}

func TestQueueCapacity(t *testing.T) {
	q := NewQueue(1, nil)
	if q.Full() {
		t.Fatal("an empty queue reports full")
	}
	if err := q.Push(&Item{ID: "a", Class: ClassBatch}); err != nil {
		t.Fatal(err)
	}
	if !q.Full() {
		t.Fatal("a queue at capacity does not report full")
	}
	if err := q.Push(&Item{ID: "b", Class: ClassInteractive}); !errors.Is(err, ErrFull) {
		t.Fatalf("push past capacity: %v, want ErrFull", err)
	}
}

// TestQueueRemove: a queued item can be taken back out — its slot is free at
// once, and a budget-blocked head that is removed stops blocking its lane —
// while an item a Pop already holds cannot.
func TestQueueRemove(t *testing.T) {
	q := NewQueue(2, NewLedger(100))
	big := &Item{ID: "big", Class: ClassBatch, Bytes: 100}
	head := &Item{ID: "head", Class: ClassInteractive, Bytes: 100}
	next := &Item{ID: "next", Class: ClassInteractive, Bytes: 0}
	q.Push(big)
	if it := popOrTimeout(t, q); it != big || q.Remove(big) {
		t.Fatalf("popped %v; Remove of a popped item must report false", it)
	}
	q.Push(head) // waits for the 100 bytes big holds, and next waits behind it
	q.Push(next)
	if err := q.Push(&Item{ID: "over", Class: ClassBatch}); !errors.Is(err, ErrFull) {
		t.Fatalf("push past capacity: %v", err)
	}
	popped := make(chan *Item)
	go func() { it, _ := q.Pop(); popped <- it }()
	time.Sleep(20 * time.Millisecond) // let the Pop find nothing admissible and wait
	if !q.Remove(head) || q.Remove(head) {
		t.Fatal("Remove must take the item out, once")
	}
	select {
	case it := <-popped:
		if it != next {
			t.Fatalf("popped %s, want next", it.ID)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("removing the blocked head did not wake the waiting Pop")
	}
	if err := q.Push(&Item{ID: "fits", Class: ClassBatch}); err != nil {
		t.Fatalf("push after Remove: %v", err)
	}
}
