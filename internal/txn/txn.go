// Package txn implements LogBase's transaction layer (paper §3.7):
// multiversion optimistic concurrency control with write locks embedded
// in the validation phase (MVOCC), providing snapshot isolation for
// read-modify-write transactions spanning multiple records and servers.
//
// A transaction reads from a consistent snapshot (the latest committed
// timestamp at Begin). Writes are buffered. At commit the manager
// acquires write locks over the write set in sorted key order (deadlock
// avoidance by ordered acquisition), validates that no write-set record
// changed since it was read ("first committer wins"), fetches a commit
// timestamp from the global timestamp authority, persists the writes
// plus a commit record, reflects them in the indexes, and releases the
// locks. Read-only transactions never lock, never validate and always
// commit — the separation MVOCC is chosen for.
package txn

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
)

// ErrConflict reports a validation failure: another transaction
// committed a newer version of a write-set record. The caller restarts
// the transaction (RunTxn does this automatically).
var ErrConflict = errors.New("txn: validation conflict, transaction restarted")

// ErrTxnDone reports use of a committed or aborted transaction.
var ErrTxnDone = errors.New("txn: transaction already finished")

// Resolver maps a tablet to the server currently serving it.
type Resolver interface {
	ServerFor(tablet string) (*core.Server, error)
}

// ResolverFunc adapts a function to the Resolver interface.
type ResolverFunc func(tablet string) (*core.Server, error)

// ServerFor implements Resolver.
func (f ResolverFunc) ServerFor(tablet string) (*core.Server, error) { return f(tablet) }

// Manager coordinates transactions. One Manager may serve many
// concurrent transactions; it is safe for concurrent use.
type Manager struct {
	svc     *coord.Service
	resolve Resolver
	nextID  atomic.Uint64
}

// NewManager creates a transaction manager using svc as timestamp
// authority and lock service (the ZooKeeper roles, paper §3.7.1).
func NewManager(svc *coord.Service, resolve Resolver) *Manager {
	return &Manager{svc: svc, resolve: resolve}
}

// Txn is one transaction. Not safe for concurrent use (one goroutine
// per transaction, as in any session-bound client).
type Txn struct {
	m      *Manager
	sess   *coord.Session // per-transaction: locks must not be shared
	id     uint64
	readTS int64
	done   bool

	// reads records the version each read observed (0 = absent), keyed
	// by lockKey; validation compares write-set entries against these.
	reads map[string]int64
	// writes buffers the write set in arrival order; later writes to
	// the same key overwrite earlier ones.
	writes map[string]*write
	order  []string
}

type write struct {
	w core.TxnWrite
}

func lockKey(tablet, group string, key []byte) string {
	return tablet + "\x00" + group + "\x00" + string(key)
}

// LockKey exposes the validation-phase lock naming so the cluster's
// migration cutover can ask the lock service whether a prepared
// transaction is still in flight.
func LockKey(tablet, group string, key []byte) string {
	return lockKey(tablet, group, key)
}

// Begin starts a transaction reading from the latest consistent
// snapshot.
func (m *Manager) Begin() *Txn {
	return &Txn{
		m:      m,
		sess:   m.svc.NewSession(),
		id:     m.nextID.Add(1),
		readTS: m.svc.LastTimestamp(),
		reads:  make(map[string]int64),
		writes: make(map[string]*write),
	}
}

// Get reads a key at the transaction's snapshot, observing the
// transaction's own buffered writes first.
func (t *Txn) Get(tablet, group string, key []byte) ([]byte, error) {
	if t.done {
		return nil, ErrTxnDone
	}
	lk := lockKey(tablet, group, key)
	if w, ok := t.writes[lk]; ok {
		if w.w.Delete {
			return nil, core.ErrNotFound
		}
		return w.w.Value, nil
	}
	srv, err := t.m.resolve.ServerFor(tablet)
	if err != nil {
		return nil, err
	}
	row, err := srv.GetAt(tablet, group, key, t.readTS)
	if errors.Is(err, core.ErrNotFound) {
		t.noteRead(lk, 0)
		return nil, err
	}
	if err != nil {
		return nil, err
	}
	t.noteRead(lk, row.TS)
	return row.Value, nil
}

// noteRead records the first observed version of a key (later reads in
// the same transaction see the same snapshot, so the first one stands).
func (t *Txn) noteRead(lk string, ts int64) {
	if _, ok := t.reads[lk]; !ok {
		t.reads[lk] = ts
	}
}

// Scan streams the snapshot-visible version of keys in [start, end) of
// one tablet's column group, overlaid with the transaction's own
// buffered writes (read-your-writes: buffered puts shadow or insert
// rows with TS = the read snapshot, buffered deletes hide rows).
// Cancelling ctx aborts the scan within one batch boundary.
func (t *Txn) Scan(ctx context.Context, tablet, group string, start, end []byte, fn func(core.Row) bool) error {
	if t.done {
		return ErrTxnDone
	}
	srv, err := t.m.resolve.ServerFor(tablet)
	if err != nil {
		return err
	}
	// Collect this transaction's buffered writes inside the range,
	// sorted by key, for a merge against the snapshot stream.
	var buf []*write
	for _, w := range t.writes {
		ww := w.w
		if ww.Tablet != tablet || ww.Group != group {
			continue
		}
		if start != nil && bytes.Compare(ww.Key, start) < 0 {
			continue
		}
		if end != nil && bytes.Compare(ww.Key, end) >= 0 {
			continue
		}
		buf = append(buf, w)
	}
	if len(buf) == 0 {
		return t.scanSnapshot(ctx, srv, tablet, group, start, end, fn)
	}
	sort.Slice(buf, func(i, j int) bool { return bytes.Compare(buf[i].w.Key, buf[j].w.Key) < 0 })

	i := 0
	stopped := false
	// emitBufferedBelow streams buffered non-delete writes with keys
	// strictly below bound (nil = all remaining).
	emitBufferedBelow := func(bound []byte) bool {
		for i < len(buf) && (bound == nil || bytes.Compare(buf[i].w.Key, bound) < 0) {
			w := buf[i].w
			i++
			if w.Delete {
				continue
			}
			if !fn(core.Row{Key: w.Key, TS: t.readTS, Value: w.Value}) {
				return false
			}
		}
		return true
	}
	err = t.scanSnapshot(ctx, srv, tablet, group, start, end, func(r core.Row) bool {
		if !emitBufferedBelow(r.Key) {
			stopped = true
			return false
		}
		if i < len(buf) && bytes.Equal(buf[i].w.Key, r.Key) {
			w := buf[i].w
			i++
			if w.Delete {
				return true // buffered delete hides the snapshot row
			}
			if !fn(core.Row{Key: r.Key, TS: t.readTS, Value: w.Value}) {
				stopped = true
				return false
			}
			return true
		}
		if !fn(r) {
			stopped = true
			return false
		}
		return true
	})
	if err != nil || stopped {
		return err
	}
	emitBufferedBelow(nil)
	return nil
}

// errStopScan ends a snapshot scan whose callback returned false.
var errStopScan = errors.New("txn: scan stopped")

// scanSnapshot streams the rows of [start, end) visible at the read
// snapshot to fn in key order until fn returns false: a serial
// ParallelScan, stopped through a sentinel error so an early stop skips
// the remaining pages.
func (t *Txn) scanSnapshot(ctx context.Context, srv *core.Server, tablet, group string, start, end []byte, fn func(core.Row) bool) error {
	opt := core.ScanOptions{Start: start, End: end, TS: t.readTS, Workers: 1}
	err := srv.ParallelScan(ctx, tablet, group, opt, func(rows []core.Row) error {
		for _, r := range rows {
			if !fn(r) {
				return errStopScan
			}
		}
		return nil
	})
	if errors.Is(err, errStopScan) {
		return nil
	}
	return err
}

// Put buffers a write. There are no blind writes in the paper's MVOCC
// (validation compares "the versions ... that T has read before"), so a
// Put without a prior Get records the current version as its read
// version.
func (t *Txn) Put(tablet, group string, key, value []byte) error {
	return t.bufferWrite(core.TxnWrite{Tablet: tablet, Group: group, Key: key, Value: value})
}

// Delete buffers a transactional delete.
func (t *Txn) Delete(tablet, group string, key []byte) error {
	return t.bufferWrite(core.TxnWrite{Tablet: tablet, Group: group, Key: key, Delete: true})
}

func (t *Txn) bufferWrite(w core.TxnWrite) error {
	if t.done {
		return ErrTxnDone
	}
	lk := lockKey(w.Tablet, w.Group, w.Key)
	if _, ok := t.reads[lk]; !ok {
		srv, err := t.m.resolve.ServerFor(w.Tablet)
		if err != nil {
			return err
		}
		ver, err := srv.CurrentVersion(w.Tablet, w.Group, w.Key)
		if err != nil {
			return err
		}
		// The version visible at our snapshot is what we logically read;
		// if a newer version already exists, validation will fail — which
		// is correct first-committer-wins behaviour.
		if ver > t.readTS {
			t.reads[lk] = -1 // sentinel: guaranteed conflict
		} else {
			t.reads[lk] = ver
		}
	}
	if _, ok := t.writes[lk]; !ok {
		t.order = append(t.order, lk)
	}
	t.writes[lk] = &write{w: w}
	return nil
}

// Abort discards the transaction.
func (t *Txn) Abort() {
	if t.done {
		return
	}
	t.done = true
	t.sess.Close()
}

// Commit runs the MVOCC validation and write phases. On conflict it
// returns ErrConflict and the transaction must be retried from Begin
// (all effects are discarded). Read-only transactions commit
// immediately.
func (t *Txn) Commit() error {
	if t.done {
		return ErrTxnDone
	}
	t.done = true
	defer t.sess.Close()
	if len(t.writes) == 0 {
		return nil
	}

	// Validation phase with embedded write locks, acquired in sorted
	// key order to avoid deadlock (paper §3.7.1).
	keys := append([]string(nil), t.order...)
	sort.Strings(keys)
	sess := t.sess
	for _, lk := range keys {
		if err := sess.Lock(lk); err != nil {
			return err
		}
	}
	unlock := func() {
		for _, lk := range keys {
			sess.Unlock(lk)
		}
	}

	// Validate: every write-set record must still be at the version this
	// transaction read.
	for _, lk := range keys {
		w := t.writes[lk]
		srv, err := t.m.resolve.ServerFor(w.w.Tablet)
		if err != nil {
			unlock()
			return err
		}
		cur, err := srv.CurrentVersion(w.w.Tablet, w.w.Group, w.w.Key)
		if err != nil {
			unlock()
			return err
		}
		if cur != t.reads[lk] {
			unlock()
			return fmt.Errorf("%w: %q v%d != read v%d", ErrConflict, w.w.Key, cur, t.reads[lk])
		}
	}

	// Write phase: commit timestamp from the authority, in flight until
	// Commit returns (so no replica watermark covers it before every
	// participant has its records), then persist.
	commitTS := t.m.svc.Issue()
	defer t.m.svc.Release(commitTS)
	byServer := map[*core.Server][]core.TxnWrite{}
	var servers []*core.Server
	for _, lk := range t.order {
		w := t.writes[lk]
		srv, err := t.m.resolve.ServerFor(w.w.Tablet)
		if err != nil {
			unlock()
			return err
		}
		if _, ok := byServer[srv]; !ok {
			servers = append(servers, srv)
		}
		byServer[srv] = append(byServer[srv], w.w)
	}

	if len(servers) == 1 {
		// Fast path: one participant, writes + commit in one atomic
		// batch (smart partitioning makes this the common case, §3.2).
		if err := servers[0].ApplyTxn(t.id, commitTS, byServer[servers[0]]); err != nil {
			unlock()
			return err
		}
	} else {
		// Two-phase commit across participants: prepare everywhere
		// (durable, invisible), then commit everywhere. A participant
		// crash between phases leaves invisible writes that compaction
		// vacuums; coordinator-crash repair is out of the paper's scope
		// (it minimises distributed transactions by design).
		prepared := make(map[*core.Server]*core.Prepared, len(servers))
		for _, srv := range servers {
			p, err := srv.PrepareTxn(t.id, commitTS, byServer[srv])
			if err != nil {
				unlock()
				return err
			}
			prepared[srv] = p
		}
		for _, srv := range servers {
			// A participant whose tablet froze for a migration cutover
			// between prepare and commit refuses the commit record. The
			// refusal is transient by construction: the migration sees
			// this transaction's prepared records as pending-with-held-
			// locks in its final catch-up and aborts the cutover, so a
			// short retry converges — and keeps the commit atomic across
			// participants that already committed.
			err := srv.CommitTxn(t.id, commitTS, prepared[srv])
			for r := 0; err != nil && errors.Is(err, core.ErrTabletFrozen) && r < commitFrozenRetries; r++ {
				time.Sleep(time.Millisecond)
				err = srv.CommitTxn(t.id, commitTS, prepared[srv])
			}
			if err != nil {
				unlock()
				return err
			}
		}
	}
	unlock()
	return nil
}

// commitFrozenRetries bounds the per-participant commit retry during a
// migration-cutover race; the cutover detects the live prepared
// transaction and unfreezes within a few milliseconds.
const commitFrozenRetries = 100

// RunTxn executes fn inside a transaction, retrying on ErrConflict (the
// paper's "T is restarted") up to maxRetries times.
func (m *Manager) RunTxn(maxRetries int, fn func(*Txn) error) error {
	if maxRetries < 1 {
		maxRetries = 1
	}
	var err error
	for attempt := 0; attempt < maxRetries; attempt++ {
		t := m.Begin()
		if err = fn(t); err != nil {
			t.Abort()
			if !retryableTopology(err) {
				return err
			}
			continue
		}
		err = t.Commit()
		if err == nil {
			return nil
		}
		if !errors.Is(err, ErrConflict) && !retryableTopology(err) {
			return err
		}
	}
	return err
}

// retryableTopology reports whether an error means the cluster topology
// shifted under the transaction (a tablet split, moved, or froze for a
// migration cutover): re-running the transaction re-resolves routing
// and converges, exactly like the plain client's stale-routing retry.
func retryableTopology(err error) bool {
	return errors.Is(err, core.ErrUnknownTablet)
}
