package cluster

// Unified client retry machinery. Every routing loop in the client —
// point-op stale retries, the multi-tablet loop (eachTablet: scans,
// secondary-index gathers), aggregate re-runs, batch re-routing —
// shares ONE retry policy (context-aware
// exponential backoff with jitter and a per-operation attempt budget).
// Reads a replica serves also feed one circuit-breaker table that stops
// routing to a read replica after consecutive failures until a probe
// succeeds. A primary needs no breaker: routing already refuses a dead
// server, and a live one answers every call.

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"repro/internal/repl"
)

// retryPolicy governs one client operation's retry loop.
type retryPolicy struct {
	// maxAttempts is the per-operation attempt budget, including the
	// first try.
	maxAttempts int
	// baseDelay is the backoff before the first retry; each further
	// retry doubles it up to maxDelay.
	baseDelay time.Duration
	maxDelay  time.Duration
	// jitter is the fraction of each delay that is randomised (0..1):
	// the slept time is uniform in [d*(1-jitter), d]. Jitter breaks the
	// convoy of many clients retrying a moved tablet in lockstep.
	jitter float64
}

// defaultRetryPolicy is every cluster's policy: 12 attempts with
// sub-millisecond early backoff, so a migration-cutover window
// (typically < 10ms) is ridden out without adding visible latency to
// the common one-retry case.
var defaultRetryPolicy = retryPolicy{
	maxAttempts: 12,
	baseDelay:   250 * time.Microsecond,
	maxDelay:    8 * time.Millisecond,
	jitter:      0.25,
}

// delay returns the backoff before retry `attempt` (1-based):
// exponential from baseDelay, capped at maxDelay, jittered via rng.
func (p retryPolicy) delay(attempt int, rng *rand.Rand) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	d := p.baseDelay
	for i := 1; i < attempt && d < p.maxDelay; i++ {
		d *= 2
	}
	if d > p.maxDelay {
		d = p.maxDelay
	}
	if p.jitter > 0 && rng != nil {
		cut := time.Duration(p.jitter * float64(d) * rng.Float64())
		d -= cut
	}
	return d
}

// sleep blocks for delay(attempt), honouring ctx's deadline and
// cancellation: an op whose context expires mid-backoff stops retrying
// immediately and returns ctx.Err().
func (p retryPolicy) sleep(ctx context.Context, attempt int, rng *rand.Rand) error {
	d := p.delay(attempt, rng)
	if ctx == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ---- circuit breaker ----------------------------------------------------

// Every cluster's breakers: breakerThreshold consecutive failures open
// a target's breaker; an open breaker rejects routing for
// breakerProbeAfter, then admits ONE probe (half-open) — a probe
// success closes it, a probe failure re-opens the window.
const (
	breakerThreshold  = 5
	breakerProbeAfter = 2 * time.Millisecond
)

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

type breakerEntry struct {
	state    breakerState
	fails    int       // consecutive failures while closed
	openedAt time.Time // when the breaker last opened
}

// breakers is the per-target circuit-breaker table, shared by every
// client of a cluster. Targets are names like "replica:ts01.r0".
type breakers struct {
	mu         sync.Mutex
	threshold  int
	probeAfter time.Duration
	m          map[string]*breakerEntry
}

func newBreakers(threshold int, probeAfter time.Duration) *breakers {
	return &breakers{threshold: threshold, probeAfter: probeAfter, m: make(map[string]*breakerEntry)}
}

// allow reports whether routing to target is admitted. An open breaker
// rejects until probeAfter has elapsed, then transitions to half-open
// and admits exactly one probe; further calls reject until the probe's
// outcome is reported.
func (b *breakers) allow(target string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.m[target]
	if e == nil {
		return true
	}
	switch e.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if time.Since(e.openedAt) >= b.probeAfter {
			e.state = breakerHalfOpen
			e.openedAt = time.Now()
			return true
		}
		return false
	default:
		// Half-open: a probe is in flight. If its outcome is never
		// reported (the caller bailed before issuing the call), admit
		// another probe after a further window rather than wedging the
		// target out of rotation forever.
		if time.Since(e.openedAt) >= b.probeAfter {
			e.openedAt = time.Now()
			return true
		}
		return false
	}
}

// success reports a successful call to target: closes its breaker and
// clears the failure streak.
func (b *breakers) success(target string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if e := b.m[target]; e != nil {
		e.state = breakerClosed
		e.fails = 0
	}
}

// failure reports a failed call to target: extends the streak, opening
// the breaker at the threshold; a failed half-open probe re-opens
// immediately.
func (b *breakers) failure(target string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.m[target]
	if e == nil {
		e = &breakerEntry{}
		b.m[target] = e
	}
	switch e.state {
	case breakerHalfOpen:
		e.state = breakerOpen
		e.openedAt = time.Now()
	case breakerClosed:
		if e.fails++; e.fails >= b.threshold {
			e.state = breakerOpen
			e.openedAt = time.Now()
		}
	}
}

// openCount reports how many targets are currently open or probing —
// the breaker-state gauge.
func (b *breakers) openCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, e := range b.m {
		if e.state != breakerClosed {
			n++
		}
	}
	return n
}

// note folds an op outcome into target's breaker: nil errors and
// non-routing errors (the target responded) count as success; routing
// errors (down/unknown — the target is unreachable or shedding) count
// as failure.
func (b *breakers) note(target string, err error) {
	if err == nil || !retryableRouting(err) {
		b.success(target)
	} else {
		b.failure(target)
	}
}

// noteReplica folds the outcome of a read readTarget sent to rep into
// the replica's breaker; a nil rep (the read went to the primary) is a
// no-op.
func (c *Cluster) noteReplica(rep *repl.Replica, err error) {
	if rep != nil {
		c.breakers.note("replica:"+rep.BaseID(), err)
	}
}
