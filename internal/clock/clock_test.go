package clock

import (
	"testing"
	"time"
)

func TestFakeClock(t *testing.T) {
	clk := NewFake()
	start := clk.Now()
	var fired []string
	clk.AfterFunc(2*time.Second, func() { fired = append(fired, "late") })
	clk.AfterFunc(time.Second, func() { fired = append(fired, "soon") })
	stop := clk.AfterFunc(time.Second, func() { fired = append(fired, "stopped") })
	if !stop() || stop() {
		t.Fatal("stop must report true once, then false")
	}
	if due := clk.WaitArmed(2); len(due) != 2 || due[0] != 2*time.Second || due[1] != time.Second {
		t.Fatalf("armed timers due in %v, want [2s 1s]: the stopped one no longer counts", due)
	}
	clk.Advance(999 * time.Millisecond)
	if len(fired) != 0 {
		t.Fatalf("fired early: %v", fired)
	}
	clk.Advance(time.Millisecond)
	if len(fired) != 1 || fired[0] != "soon" {
		t.Fatalf("after 1s: %v", fired)
	}
	clk.Advance(time.Hour)
	clk.Advance(time.Hour)
	if len(fired) != 2 || fired[1] != "late" || clk.Now().Sub(start) != 2*time.Hour+time.Second {
		t.Fatalf("after the jump: %v at %v", fired, clk.Now().Sub(start))
	}
}

// TestWaitArmedWakesOnAFreshTimer: a waiter blocked before any timer exists
// returns once another goroutine arms one.
func TestWaitArmedWakesOnAFreshTimer(t *testing.T) {
	clk := NewFake()
	woke := make(chan struct{})
	go func() {
		clk.WaitArmed(1)
		close(woke)
	}()
	clk.AfterFunc(time.Second, func() {})
	<-woke
}
