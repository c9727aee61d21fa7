package coord

import (
	"sort"
	"sync"
	"testing"
	"time"
)

func TestTimestampOracleMonotonic(t *testing.T) {
	svc := New()
	var mu sync.Mutex
	seen := map[int64]bool{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				ts := svc.NextTimestamp()
				mu.Lock()
				if seen[ts] {
					t.Errorf("duplicate timestamp %d", ts)
				}
				seen[ts] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != 8000 {
		t.Errorf("issued %d distinct timestamps, want 8000", len(seen))
	}
	if svc.LastTimestamp() != 8000 {
		t.Errorf("LastTimestamp = %d", svc.LastTimestamp())
	}
}

// TestLowWaterStopsBelowOldestInFlight pins the low-water mark: it
// trails the oldest registered timestamp whatever order registrations
// are released in, timestamps issued without one only raise it once
// nothing older is in flight, and it is LastTimestamp when nothing is.
func TestLowWaterStopsBelowOldestInFlight(t *testing.T) {
	svc := New()
	svc.AdvanceTo(10)
	if got := svc.LowWater(); got != 10 {
		t.Fatalf("idle LowWater = %d, want 10", got)
	}
	a, b, c := svc.Issue(), svc.Issue(), svc.Issue() // 11, 12, 13
	svc.NextTimestamp()                              // 14, unregistered
	for _, step := range []struct {
		release int64
		want    int64
	}{
		{b, a - 1}, // a is still the oldest
		{a, c - 1},
		{c, 14},
	} {
		svc.Release(step.release)
		if got := svc.LowWater(); got != step.want {
			t.Fatalf("after Release(%d): LowWater = %d, want %d", step.release, got, step.want)
		}
	}
	svc.Release(c) // a second release is a no-op
	if got := svc.LowWater(); got != 14 {
		t.Fatalf("after a repeated Release: LowWater = %d, want 14", got)
	}
}

// TestLowWaterNeverCoversInFlight races writers that each issue,
// "append" (record their timestamp) and release, against a reader that
// checks every timestamp at or below LowWater was recorded.
func TestLowWaterNeverCoversInFlight(t *testing.T) {
	svc := New()
	var mu sync.Mutex
	durable := map[int64]bool{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				ts := svc.Issue()
				mu.Lock()
				durable[ts] = true
				mu.Unlock()
				svc.Release(ts)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		checked := int64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			lw := svc.LowWater()
			mu.Lock()
			for ; checked < lw; checked++ {
				if !durable[checked+1] {
					t.Errorf("LowWater %d covers in-flight timestamp %d", lw, checked+1)
				}
			}
			mu.Unlock()
		}
	}()
	wg.Wait()
	close(stop)
	<-done
	if got := svc.LowWater(); got != 8000 {
		t.Fatalf("LowWater after every release = %d, want 8000", got)
	}
}

func TestLockBlocksAndFIFO(t *testing.T) {
	svc := New()
	holder := svc.NewSession()
	holder.Lock("k")

	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := svc.NewSession()
			s.Lock("k")
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			time.Sleep(time.Millisecond)
			s.Unlock("k")
		}(i)
		time.Sleep(20 * time.Millisecond) // deterministic queueing order
	}
	holder.Unlock("k")
	wg.Wait()
	if !sort.IntsAreSorted(order) {
		t.Errorf("lock grant order %v, want FIFO", order)
	}
}

func TestLocksReleasedOnSessionClose(t *testing.T) {
	svc := New()
	a := svc.NewSession()
	b := svc.NewSession()
	a.Lock("x")
	a.Lock("y")
	if !svc.LockHeld("x") || !svc.LockHeld("y") {
		t.Fatal("acquired locks not reported held")
	}
	done := make(chan struct{})
	go func() {
		b.Lock("x")
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	a.Close()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("lock not released by session close")
	}
	if svc.LockHeld("y") {
		t.Error("dead session still holds locks")
	}
	if !svc.LockHeld("x") {
		t.Error("waiter did not take over the released lock")
	}
}

func TestDoubleCloseSafe(t *testing.T) {
	svc := New()
	s := svc.NewSession()
	s.Lock("k")
	s.Close()
	s.Close() // must be a no-op
	if svc.LockHeld("k") {
		t.Fatal("lock survived its session")
	}
	if err := s.Lock("k"); err != ErrSessionClosed {
		t.Fatalf("Lock on a closed session = %v, want ErrSessionClosed", err)
	}
}

func TestOrderedAcquisitionNoDeadlock(t *testing.T) {
	// Two transactions locking overlapping key sets in sorted order
	// (the paper's deadlock-avoidance rule) must always complete.
	svc := New()
	keys := []string{"a", "b", "c", "d"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := svc.NewSession()
			defer s.Close()
			for iter := 0; iter < 50; iter++ {
				subset := keys[g%2 : 2+g%2] // overlapping slices, still sorted
				for _, k := range subset {
					s.Lock(k)
				}
				for _, k := range subset {
					s.Unlock(k)
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("deadlock despite ordered acquisition")
	}
}
