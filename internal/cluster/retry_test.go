package cluster

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/readopt"
)

func TestRetryPolicyDelaySchedule(t *testing.T) {
	p := retryPolicy{maxAttempts: 8, baseDelay: time.Millisecond, maxDelay: 8 * time.Millisecond}
	// No jitter (rng nil): pure doubling capped at MaxDelay.
	want := []time.Duration{
		1 * time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond,
		8 * time.Millisecond, 8 * time.Millisecond,
	}
	for i, w := range want {
		if d := p.delay(i+1, nil); d != w {
			t.Fatalf("delay(%d) = %v, want %v", i+1, d, w)
		}
	}
}

func TestRetryPolicyJitterBounds(t *testing.T) {
	p := retryPolicy{baseDelay: time.Millisecond, maxDelay: 8 * time.Millisecond, jitter: 0.5}
	rng := rand.New(rand.NewSource(42))
	for attempt := 1; attempt <= 6; attempt++ {
		full := p.delay(attempt, nil)
		for i := 0; i < 50; i++ {
			d := p.delay(attempt, rng)
			if d > full || d < full/2 {
				t.Fatalf("jittered delay(%d) = %v outside [%v, %v]", attempt, d, full/2, full)
			}
		}
	}
}

func TestRetryPolicyDeterministicWithSeed(t *testing.T) {
	p := defaultRetryPolicy
	a := rand.New(rand.NewSource(7))
	b := rand.New(rand.NewSource(7))
	for attempt := 1; attempt <= 12; attempt++ {
		if da, db := p.delay(attempt, a), p.delay(attempt, b); da != db {
			t.Fatalf("same seed diverged at attempt %d: %v vs %v", attempt, da, db)
		}
	}
}

func TestRetrySleepHonoursContext(t *testing.T) {
	p := retryPolicy{baseDelay: time.Second, maxDelay: time.Second}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := p.sleep(ctx, 1, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("sleep under expired deadline returned %v, want DeadlineExceeded", err)
	}
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Fatalf("sleep ignored the deadline, blocked %v", took)
	}
}

func TestBreakerOpensAtThresholdAndProbes(t *testing.T) {
	b := newBreakers(3, 10*time.Millisecond)
	const target = "replica:ts99.r0"
	if !b.allow(target) {
		t.Fatal("fresh target disallowed")
	}
	b.failure(target)
	b.failure(target)
	if !b.allow(target) {
		t.Fatal("breaker opened below threshold")
	}
	b.failure(target) // third consecutive failure: opens
	if b.allow(target) {
		t.Fatal("breaker did not open at threshold")
	}
	if n := b.openCount(); n != 1 {
		t.Fatalf("openCount = %d, want 1", n)
	}
	// Before the probe window: still rejected.
	if b.allow(target) {
		t.Fatal("open breaker admitted before probeAfter")
	}
	time.Sleep(12 * time.Millisecond)
	// Probe window elapsed: exactly one probe admitted.
	if !b.allow(target) {
		t.Fatal("no probe admitted after probeAfter")
	}
	if b.allow(target) {
		t.Fatal("second probe admitted while first in flight")
	}
	// Failed probe re-opens; successful probe closes.
	b.failure(target)
	if b.allow(target) {
		t.Fatal("failed probe did not re-open")
	}
	time.Sleep(12 * time.Millisecond)
	if !b.allow(target) {
		t.Fatal("no probe after re-open window")
	}
	b.success(target)
	if !b.allow(target) || b.openCount() != 0 {
		t.Fatal("successful probe did not close the breaker")
	}
	// Closed again: a single failure does not re-open (streak reset).
	b.failure(target)
	if !b.allow(target) {
		t.Fatal("one failure after close re-opened the breaker")
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	b := newBreakers(3, time.Millisecond)
	const target = "replica:ts00.r0"
	b.failure(target)
	b.failure(target)
	b.success(target)
	b.failure(target)
	b.failure(target)
	if !b.allow(target) {
		t.Fatal("streak not reset by interleaved success")
	}
}

func TestBreakerNoteClassifiesErrors(t *testing.T) {
	b := newBreakers(1, time.Minute)
	// Routing errors count as failure...
	b.note("replica:x", ErrServerDown)
	if b.allow("replica:x") {
		t.Fatal("ErrServerDown did not open (threshold 1)")
	}
	// ...but app-level errors mean the target responded.
	b.note("replica:y", core.ErrNotFound)
	if !b.allow("replica:y") {
		t.Fatal("ErrNotFound treated as target failure")
	}
}

// setServerAlive simulates the window between a server dying and its
// failover completing — routing still points at the server, but it is
// unreachable (ServerFor → ErrServerDown). KillServer can't model this:
// it runs the whole failover synchronously.
func setServerAlive(c *Cluster, id string, alive bool) {
	c.mu.Lock()
	c.servers[id].alive = alive
	c.mu.Unlock()
}

// downUntilResume makes server id unreachable until the cluster counts
// a multi-tablet resume, then heals it. The returned stop waits for the
// healer, which also heals on stop if no resume ever came.
func downUntilResume(c *Cluster, id string) (stop func()) {
	resumes := c.obsScanResumes.Load()
	setServerAlive(c, id, false)
	returned, healed := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(healed)
		defer setServerAlive(c, id, true)
		for c.obsScanResumes.Load() == resumes {
			select {
			case <-returned:
				return
			case <-time.After(100 * time.Microsecond):
			}
		}
	}()
	return func() {
		close(returned)
		<-healed
	}
}

func ownerOf(t *testing.T, c *Cluster, cl *Client, key []byte) string {
	t.Helper()
	tab, err := cl.TabletFor("users", key)
	if err != nil {
		t.Fatalf("TabletFor: %v", err)
	}
	owner, ok := c.Assignments()[tab]
	if !ok {
		t.Fatalf("tablet %s unassigned", tab)
	}
	return owner
}

func TestRetryAttemptCounterAdvances(t *testing.T) {
	c := newTestCluster(t, 2)
	defer c.Close()
	cl := c.NewClient()
	key := []byte("user02")
	if err := cl.Put("users", "profile", key, []byte("v0")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	owner := ownerOf(t, c, cl, key)

	before := findCounter(t, c, "logbase_retry_attempts_total")
	setServerAlive(c, owner, false)
	cl = c.NewClient()              // cold cache: routing observes the outage
	cl.Get("users", "profile", key) // exhausts the attempt budget
	setServerAlive(c, owner, true)
	after := findCounter(t, c, "logbase_retry_attempts_total")
	if after <= before {
		t.Fatalf("logbase_retry_attempts_total did not advance: %v -> %v", before, after)
	}
}

// findCounter reads a metric value from the cluster registry dump.
func findCounter(t *testing.T, c *Cluster, name string) float64 {
	t.Helper()
	for _, m := range c.Metrics().Snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("metric %s not registered", name)
	return 0
}

// TestMultiTabletOpsResumeOnStaleRouting drives every multi-tablet read
// through a window in which the middle tablet's owner is unreachable
// after the first tablet has been served: each op must resume past the
// tablets it finished (counted and labelled on the request span) and
// return exactly the oracle rows — no duplicates, in order where the
// API orders.
func TestMultiTabletOpsResumeOnStaleRouting(t *testing.T) {
	c := newQueryCluster(t, 3)
	defer c.Close()
	cl := c.NewClient()
	// One-byte-prefixed keys spread over SplitUniform(3)'s three tablets;
	// round-robin assignment gives the middle one to ts01.
	const n = 256
	var keys []string
	for i := 0; i < n; i++ {
		key := []byte{byte(i), 'k'}
		if err := cl.Put("metrics", "v", key, []byte(strconv.Itoa(i))); err != nil {
			t.Fatalf("Put: %v", err)
		}
		keys = append(keys, string(key))
	}
	lastDigit := func(v []byte) []byte { return v[len(v)-1:] }
	if err := c.RegisterSecondaryIndex("by-digit", "metrics", "v", lastDigit); err != nil {
		t.Fatal(err)
	}
	// withDigits is the (attribute, primary key) order of rows whose
	// value ends in a digit in [lo, hi].
	withDigits := func(lo, hi byte) []string {
		var out []string
		for d := lo; d <= hi; d++ {
			for i, k := range keys {
				if s := strconv.Itoa(i); s[len(s)-1] == d {
					out = append(out, k)
				}
			}
		}
		return out
	}
	const limit = 120 // more than the last tablet holds: the reverse scan reaches ts01
	topDown := slices.Clone(keys[n-limit:])
	slices.Reverse(topDown)

	type emitFn = func(key []byte)
	cases := []struct {
		name    string
		ordered bool
		want    []string
		run     func(ctx context.Context, emit emitFn) error
	}{
		{"ScanOpts", true, keys, func(ctx context.Context, emit emitFn) error {
			return cl.ScanOpts(ctx, "metrics", "v", nil, nil, readopt.Options{}, func(r core.Row) bool { emit(r.Key); return true })
		}},
		{"ScanOpts/reverse-limit", true, topDown, func(ctx context.Context, emit emitFn) error {
			ro := readopt.Options{Reverse: true, Limit: limit}
			return cl.ScanOpts(ctx, "metrics", "v", nil, nil, ro, func(r core.Row) bool { emit(r.Key); return true })
		}},
		{"FullScanOpts", false, keys, func(ctx context.Context, emit emitFn) error {
			return cl.FullScanOpts(ctx, "metrics", "v", readopt.Options{}, func(r core.Row) bool { emit(r.Key); return true })
		}},
		{"LookupSecondary", true, withDigits('7', '7'), func(_ context.Context, emit emitFn) error {
			rows, err := cl.LookupSecondary("by-digit", []byte("7"))
			for _, r := range rows {
				emit(r.Key)
			}
			return err
		}},
		{"ScanSecondaryRange", true, withDigits('3', '4'), func(_ context.Context, emit emitFn) error {
			return cl.ScanSecondaryRange("by-digit", []byte("3"), []byte("5"), func(_ []byte, r core.Row) bool { emit(r.Key); return true })
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resumes := c.obsScanResumes.Load()
			var tree string
			tracer := &obs.Tracer{Sink: func(s string) { tree = s }}
			ctx, root := tracer.Root(context.Background(), "test")
			cl.SetSpan(root) // the secondary gathers take no context
			var got []string
			stop := downUntilResume(c, "ts01")
			err := tc.run(ctx, func(key []byte) { got = append(got, string(key)) })
			stop()
			cl.SetSpan(nil)
			root.Finish()
			if err != nil {
				t.Fatalf("across an unreachable window: %v", err)
			}
			if !tc.ordered {
				sort.Strings(got)
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("got %d rows, want %d (duplicates, gaps or order)", len(got), len(tc.want))
			}
			if c.obsScanResumes.Load() <= resumes {
				t.Fatalf("logbase_client_scan_resumes_total did not advance from %d", resumes)
			}
			if !strings.Contains(tree, "resume=tablet=") {
				t.Fatalf("trace lacks a resume=tablet= label:\n%s", tree)
			}
		})
	}
}
