package logbase

// Read replicas and retention for the embedded backend. A replica is a
// WAL-shipping standby of the embedded server (internal/repl): it
// replays the committed log stream into its own multiversion index and
// publishes a watermark timestamp — the frontier below which its state
// is byte-identical to the primary's. Pinned snapshot reads (Scan /
// FullScan, Read with WithSnapshot, and Exec statements) whose
// timestamp is at or below a replica's watermark are served by that
// replica, round-robin across replicas, falling back to the primary
// when none qualifies. Unpinned point reads and all transactional reads
// always hit the primary (read-your-writes); WithPrimary opts any read
// out of replica routing, WithMaxLag bounds the serving replica's
// current shipping lag. The rule itself (repl.Replica.Serves) is shared
// with the cluster router.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/repl"
)

// Replica is a WAL-shipping read replica (see internal/repl).
type Replica = repl.Replica

// ReplicaStats is a point-in-time view of one replica's shipping state.
type ReplicaStats = repl.Stats

// RetentionPolicy bounds a table's retained version history (keep the
// newest N versions per key, drop versions older than T, or both); see
// SetRetention.
type RetentionPolicy = core.RetentionPolicy

// StartReplica starts a WAL-shipping read replica of this DB and
// registers it with the read router. The replica mirrors the current
// tables and their retention policies (tables created and policies set
// later reach it automatically) and begins catching up immediately; use
// the returned handle's WaitForTS to block until its watermark covers a
// timestamp. Close the DB to stop it.
func (db *DB) StartReplica() (*Replica, error) {
	db.rmu.Lock()
	defer db.rmu.Unlock()
	base := fmt.Sprintf("embedded.r%d", db.replicaSeq)
	r, err := repl.New(db.fs, db.server, base, repl.Config{
		LastTS: db.svc.LastTimestamp,
		Server: core.Config{
			SegmentSize:    db.opts.SegmentSize,
			ReadCacheBytes: db.opts.ReadCacheBytes,
			DisableMetrics: true,
		},
	})
	if err != nil {
		return nil, err
	}
	db.tmu.RLock()
	for name, tm := range db.tables {
		r.AddTablet(partition.Tablet{ID: tm.tablet, Table: name}, tm.groups)
		if p, ok := db.server.Retention(name); ok {
			r.SetRetention(name, p)
		}
	}
	db.tmu.RUnlock()
	if err := r.Start(); err != nil {
		r.Close()
		return nil, err
	}
	db.replicaSeq++
	db.replicas = append(db.replicas, r)
	return r, nil
}

// Replicas returns the DB's read replicas.
func (db *DB) Replicas() []*Replica {
	db.rmu.RLock()
	defer db.rmu.RUnlock()
	return append([]*Replica(nil), db.replicas...)
}

// readServer returns the server a read pinned at ts should hit: a
// replica that Serves it (round-robin; its reads-served counter is
// bumped), else the primary — always the primary for unpinned reads
// (ts <= 0) and explicit WithPrimary.
func (db *DB) readServer(ts int64, ro ReadOptions) *core.Server {
	if ts <= 0 || ro.Primary {
		return db.server
	}
	db.rmu.RLock()
	defer db.rmu.RUnlock()
	n := len(db.replicas)
	for i, start := 0, int(db.rrNext.Add(1)-1); i < n; i++ {
		if r := db.replicas[(start+i)%n]; r.Serves(ts, ro) {
			r.NoteRead(1)
			return r.Server()
		}
	}
	return db.server
}
