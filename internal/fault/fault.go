// Package fault is a deterministic, seedable fault-injection registry.
//
// Code under test registers *fault points* — named call sites on the
// storage and write paths (e.g. "dfs.dn1.read", "wal.append",
// "crash.compact.pre-remove") — by calling Registry.Fire at the point.
// Tests arm points with a Policy describing when the point triggers
// (fail once, fail the next N hits, probabilistically with a seeded
// RNG, only after K hits) and what happens when it does (an injected
// error, added latency, a partial write, a bit flip, a crash, an
// arbitrary callback such as killing a datanode).
//
// Everything is deterministic for a given seed: each point draws from
// its own RNG seeded from the registry seed and the point name, so
// adding or reordering unrelated points does not perturb a run.
//
// The disabled path is one nil check plus one atomic load: a nil
// *Registry (the production default) and a registry with nothing armed
// both cost nothing measurable, which internal/bench's fault-overhead
// experiment enforces.
package fault

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the default error returned by an armed point with no
// explicit Err in its policy.
var ErrInjected = errors.New("fault: injected error")

// ErrCrash is returned by crash points: the operation must abort
// immediately, leaving whatever already reached disk in place. The
// crash harness treats a process whose op returned ErrCrash as dead —
// it drops all in-memory state and reopens from disk.
var ErrCrash = errors.New("fault: crash point reached")

// Crashed reports whether err originated at a crash point.
func Crashed(err error) bool { return errors.Is(err, ErrCrash) }

// Policy describes when an armed point triggers and what it injects.
// The zero value triggers on every hit and injects ErrInjected.
type Policy struct {
	// After skips the first After hits before the point may trigger
	// ("fail the 4th append": After=3, Times=1).
	After int
	// Times limits how many hits inject; 0 means unlimited. A point
	// whose Times are exhausted stops triggering but stays armed (its
	// hit count keeps advancing, visible via Hits).
	Times int
	// Prob triggers each eligible hit with this probability, drawn
	// from the point's seeded RNG. 0 means always.
	Prob float64

	// Err is the error injected on trigger. Nil with no other effect
	// set means ErrInjected; nil with Delay/OnFire set means the
	// injection is a side effect only and the caller proceeds.
	Err error
	// Crash makes the point a crash point: the injected error is
	// ErrCrash regardless of Err.
	Crash bool
	// Delay is extra latency the caller must realise (virtual clock
	// advance inside simdisk, wall sleep elsewhere).
	Delay time.Duration
	// Partial, in (0,1), asks the caller to apply only that fraction
	// of the write before failing — a torn append.
	Partial float64
	// FlipBit asks the caller to flip one deterministic bit of the
	// buffer in flight (Outcome.Token picks which).
	FlipBit bool
	// OnFire runs on trigger, before the outcome is returned. Used
	// for scheduled side effects like datanode kills.
	OnFire func()
}

// Outcome is what an armed, triggered point injects. The zero Outcome
// means "nothing injected".
type Outcome struct {
	// Point is the name of the point that fired ("" if none).
	Point string
	// Err is the injected error (nil for side-effect-only outcomes).
	Err error
	// Delay is latency the caller must realise.
	Delay time.Duration
	// Partial, when in (0,1), is the fraction of the write to apply
	// before returning Err.
	Partial float64
	// FlipBit asks the caller to corrupt the in-flight buffer with
	// Corrupt(p, Token).
	FlipBit bool
	// Token is a deterministic per-trigger random value for the
	// caller to derive corruption positions from.
	Token uint64
}

// Injected reports whether the point actually fired.
func (o Outcome) Injected() bool { return o.Point != "" }

// Corrupt flips one bit of p at a position chosen by token. Empty
// buffers are left alone.
func Corrupt(p []byte, token uint64) {
	if len(p) == 0 {
		return
	}
	p[token%uint64(len(p))] ^= 1 << ((token >> 32) % 8)
}

// point is one armed fault point.
type point struct {
	policy Policy
	rng    *rand.Rand
	hits   int64
	fired  int64
}

// Registry holds the armed fault points for one system under test.
// A nil *Registry is valid and never injects. Safe for concurrent use.
type Registry struct {
	// armed is the number of currently armed points; the Fire fast
	// path returns after one load when it is zero.
	armed    atomic.Int32
	injected atomic.Int64

	mu     sync.Mutex
	seed   int64
	points map[string]*point
	// onInject, when set, observes every injection (obs counters).
	onInject func(pointName string)
}

// New returns a registry whose per-point RNGs derive from seed.
func New(seed int64) *Registry {
	return &Registry{seed: seed, points: make(map[string]*point)}
}

// Seed returns the registry's seed (logged by chaos tests so a failing
// run is reproducible).
func (r *Registry) Seed() int64 {
	if r == nil {
		return 0
	}
	return r.seed
}

// OnInject registers an observer called with the point name on every
// injection. One observer; later calls replace earlier ones.
func (r *Registry) OnInject(fn func(pointName string)) {
	r.mu.Lock()
	r.onInject = fn
	r.mu.Unlock()
}

// Arm arms (or re-arms, resetting counters) the named point.
func (r *Registry) Arm(name string, p Policy) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.points[name]; !ok {
		r.armed.Add(1)
	}
	h := fnv.New64a()
	h.Write([]byte(name))
	r.points[name] = &point{
		policy: p,
		rng:    rand.New(rand.NewSource(r.seed ^ int64(h.Sum64()))),
	}
}

// Disarm removes the named point; unknown names are a no-op.
func (r *Registry) Disarm(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.points[name]; ok {
		delete(r.points, name)
		r.armed.Add(-1)
	}
}

// Reset disarms every point and zeroes the injection counter.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.armed.Add(-int32(len(r.points)))
	r.points = make(map[string]*point)
	r.injected.Store(0)
}

// Injected returns the total number of injections since New/Reset.
func (r *Registry) Injected() int64 {
	if r == nil {
		return 0
	}
	return r.injected.Load()
}

// Hits returns how many times the named point has been reached while
// armed (whether or not it triggered).
func (r *Registry) Hits(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if pt, ok := r.points[name]; ok {
		return pt.hits
	}
	return 0
}

// Armed returns the names of all armed points, sorted.
func (r *Registry) Armed() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.points))
	for n := range r.points {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Fire evaluates the named point. It returns the zero Outcome unless
// the point is armed and its policy triggers on this hit. Nil-safe:
// production code passes a nil registry and pays one comparison.
func (r *Registry) Fire(name string) Outcome {
	if r == nil || r.armed.Load() == 0 {
		return Outcome{}
	}
	r.mu.Lock()
	pt, ok := r.points[name]
	if !ok {
		r.mu.Unlock()
		return Outcome{}
	}
	pt.hits++
	pol := pt.policy
	if pt.hits <= int64(pol.After) ||
		(pol.Times > 0 && pt.fired >= int64(pol.Times)) ||
		(pol.Prob > 0 && pol.Prob < 1 && pt.rng.Float64() >= pol.Prob) {
		r.mu.Unlock()
		return Outcome{}
	}
	pt.fired++
	token := pt.rng.Uint64()
	observe := r.onInject
	r.mu.Unlock()

	r.injected.Add(1)
	if observe != nil {
		observe(name)
	}
	if pol.OnFire != nil {
		pol.OnFire()
	}
	o := Outcome{
		Point:   name,
		Err:     pol.Err,
		Delay:   pol.Delay,
		Partial: pol.Partial,
		FlipBit: pol.FlipBit,
		Token:   token,
	}
	if pol.Crash {
		o.Err = fmt.Errorf("%w: %s", ErrCrash, name)
	} else if o.Err == nil && o.Delay == 0 && o.Partial == 0 && !o.FlipBit && pol.OnFire == nil {
		o.Err = fmt.Errorf("%w at %s", ErrInjected, name)
	}
	return o
}

// FireErr is Fire for call sites that only care about an injected
// error: it realises any Delay as a wall sleep and returns the error.
func (r *Registry) FireErr(name string) error {
	o := r.Fire(name)
	if !o.Injected() {
		return nil
	}
	if o.Delay > 0 {
		time.Sleep(o.Delay)
	}
	return o.Err
}
