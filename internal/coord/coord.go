// Package coord is the reproduction's ZooKeeper (paper §3.3, §3.7),
// reduced to the two services the in-process cluster reads: the
// timestamp oracle that totally orders commits, and the session-owned
// lock table MVOCC's validation phase takes its write locks from.
// LogBase also hands ZooKeeper server liveness and master election; in
// one process the cluster's server table is the liveness record and
// there is one master, so neither is modelled.
//
// The oracle also knows which issued timestamps are not yet durable. An
// operation that takes its timestamp from Issue holds LowWater below it
// until it calls Release, so a replica watermark built on LowWater never
// covers a write still on its way to the log.
package coord

import (
	"cmp"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
)

// ErrSessionClosed is returned for operations on a closed session.
var ErrSessionClosed = errors.New("coord: session closed")

// Service is the coordination service. One instance serves a whole
// simulated cluster.
type Service struct {
	clock atomic.Int64

	// flight lists the timestamps Issue registered and Release has not
	// yet released, ascending: Issue appends under flightMu in the same
	// step that advances the clock.
	flightMu sync.Mutex
	flight   []inFlight

	mu    sync.Mutex
	locks map[string]*lockState
}

type inFlight struct {
	ts       int64
	released bool
}

// New creates an empty coordination service.
func New() *Service {
	return &Service{locks: make(map[string]*lockState)}
}

// NextTimestamp issues the next globally ordered timestamp. LogBase
// uses this as the commit-timestamp authority establishing a total
// order over committed update transactions (paper §3.7.1).
func (s *Service) NextTimestamp() int64 { return s.clock.Add(1) }

// LastTimestamp returns the most recently issued timestamp (a safe
// read-snapshot bound).
func (s *Service) LastTimestamp() int64 { return s.clock.Load() }

// AdvanceTo raises the clock to at least ts. Recovery seeds a fresh
// oracle past every committed timestamp it restored, so "latest"
// snapshot reads on a reopened instance see the recovered data instead
// of an empty pre-history.
func (s *Service) AdvanceTo(ts int64) {
	for {
		cur := s.clock.Load()
		if cur >= ts || s.clock.CompareAndSwap(cur, ts) {
			return
		}
	}
}

// Issue issues the next timestamp, like NextTimestamp, and registers it
// as in flight until Release(ts). A write operation issues its first
// timestamp here and releases it when it returns, durable or failed;
// any later timestamp it takes from NextTimestamp is above the first,
// so the one registration covers them all.
func (s *Service) Issue() int64 {
	s.flightMu.Lock()
	ts := s.clock.Add(1)
	s.flight = append(s.flight, inFlight{ts: ts})
	s.flightMu.Unlock()
	return ts
}

// Release ends the registration Issue made for ts.
func (s *Service) Release(ts int64) {
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	i, ok := slices.BinarySearchFunc(s.flight, ts, func(f inFlight, ts int64) int { return cmp.Compare(f.ts, ts) })
	if !ok {
		return
	}
	s.flight[i].released = true
	n := 0
	for n < len(s.flight) && s.flight[n].released {
		n++
	}
	s.flight = s.flight[:copy(s.flight, s.flight[n:])]
}

// LowWater is the newest timestamp at or below which every registered
// operation has returned: the oldest timestamp still in flight minus 1,
// or LastTimestamp when none is.
func (s *Service) LowWater() int64 {
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	if len(s.flight) > 0 {
		return s.flight[0].ts - 1
	}
	return s.clock.Load()
}

// Session owns locks. Closing it releases every lock it still holds,
// as when a ZooKeeper client dies. A session is used by one goroutine.
type Session struct {
	svc    *Service
	held   int // locks owned; Close scans the table only when some are
	closed bool
}

// NewSession opens a session.
func (s *Service) NewSession() *Session { return &Session{svc: s} }

// Close releases the session's locks; later Locks fail. Idempotent.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.held == 0 {
		return
	}
	svc := s.svc
	svc.mu.Lock()
	var wake []chan struct{}
	for key, ls := range svc.locks {
		if ls.owner == s {
			if next := svc.releaseLocked(key, ls); next != nil {
				wake = append(wake, next)
			}
		}
	}
	svc.mu.Unlock()
	s.held = 0
	for _, next := range wake {
		close(next)
	}
}

// lockState holds a lock's owner and FIFO waiter queue.
type lockState struct {
	owner   *Session
	waiters []chan struct{}
}

// Lock blocks until the named lock is acquired (FIFO order among
// waiters). Locks are re-entrant per session. MVOCC acquires locks in
// sorted key order, which prevents deadlock (paper §3.7.1), so the
// service itself does not detect them.
func (s *Session) Lock(key string) error {
	svc := s.svc
	for {
		if s.closed {
			return ErrSessionClosed
		}
		svc.mu.Lock()
		ls, ok := svc.locks[key]
		if !ok || ls.owner == nil {
			if !ok {
				ls = &lockState{}
				svc.locks[key] = ls
			}
			ls.owner = s
			svc.mu.Unlock()
			s.held++
			return nil
		}
		if ls.owner == s {
			svc.mu.Unlock()
			return nil
		}
		wait := make(chan struct{})
		ls.waiters = append(ls.waiters, wait)
		svc.mu.Unlock()
		<-wait
	}
}

// Unlock releases the named lock if held by this session.
func (s *Session) Unlock(key string) {
	svc := s.svc
	svc.mu.Lock()
	ls, ok := svc.locks[key]
	if !ok || ls.owner != s {
		svc.mu.Unlock()
		return
	}
	next := svc.releaseLocked(key, ls)
	svc.mu.Unlock()
	s.held--
	if next != nil {
		close(next)
	}
}

// releaseLocked frees a held lock and returns the waiter to wake (nil if
// none; the caller closes it after dropping mu). Callers hold mu.
func (s *Service) releaseLocked(key string, ls *lockState) chan struct{} {
	ls.owner = nil
	if len(ls.waiters) == 0 {
		delete(s.locks, key)
		return nil
	}
	next := ls.waiters[0]
	ls.waiters = ls.waiters[1:]
	return next
}

// LockHeld reports whether any session currently holds the named lock.
// The migration cutover uses this to distinguish live prepared
// transactions (write locks still held through the commit phase) from
// orphaned prepare records whose transaction already unwound.
func (s *Service) LockHeld(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	ls, ok := s.locks[key]
	return ok && ls.owner != nil
}
