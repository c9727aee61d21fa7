package core

import "repro/internal/wal"

// Prepared holds the durable-but-uncommitted writes of one transaction
// on one participant server (phase one of two-phase commit). While
// registered with the server (PrepareTxn..CommitTxn), a compaction
// that relocates the prepared records updates ptrs in place under the
// server's prepared-registry lock.
type Prepared struct {
	writes []TxnWrite
	ptrs   []wal.Ptr
	lsns   []uint64
}

// PrepareTxn durably appends a transaction's writes for this server
// WITHOUT a commit record and WITHOUT touching the indexes: the writes
// are invisible (scans and recovery ignore records whose commit record
// is absent, paper §3.7.2) until CommitTxn. This is the participant
// side of the cross-server commit; single-server transactions use
// ApplyTxn's one-batch fast path instead.
func (s *Server) PrepareTxn(txnID uint64, commitTS int64, writes []TxnWrite) (*Prepared, error) {
	defer s.obs.since(s.obs.prepareTxn, s.obs.start())
	s.installMu.RLock()
	defer s.installMu.RUnlock()
	muts, err := s.stageAll(len(writes), func(i int) BatchWrite { return writes[i].at(commitTS) })
	if err != nil {
		return nil, err
	}
	recs := frame(muts, txnID)
	ptrs, err := s.append(recs...)
	if err != nil {
		return nil, err
	}
	// Crash point: the prepared writes are durable but commit-less —
	// recovery must keep them invisible until a commit record exists.
	if err := s.cfg.Faults.FireErr("crash.2pc.post-prepare"); err != nil {
		return nil, err
	}
	p := &Prepared{writes: writes, ptrs: ptrs}
	for _, r := range recs {
		p.lsns = append(p.lsns, r.LSN)
	}
	// Register so compaction keeps these commit-less records and
	// repoints p.ptrs if it relocates them before CommitTxn runs.
	s.prepMu.Lock()
	if s.prepared == nil {
		s.prepared = make(map[uint64]*Prepared)
	}
	s.prepared[txnID] = p
	s.prepMu.Unlock()
	return p, nil
}

// CommitTxn persists the commit record for a prepared transaction and
// installs its writes.
func (s *Server) CommitTxn(txnID uint64, commitTS int64, p *Prepared) error {
	defer s.obs.since(s.obs.commitTxn, s.obs.start())
	s.installMu.RLock()
	defer s.installMu.RUnlock()
	// Stage again under THIS hold of the latch: the tablets may have
	// split, moved or frozen since the prepare. A tablet frozen for
	// migration must not gain a commit record: the migration's final
	// replay bound was taken at freeze time, so a later commit would be
	// durable on the source yet invisible to the destination — silent
	// loss. Failing here keeps the prepared writes uncommitted (recovery
	// and replay both ignore them).
	muts, err := s.stageAll(len(p.writes), func(i int) BatchWrite { return p.writes[i].at(commitTS) })
	if err != nil {
		return err
	}
	if _, err := s.append(&wal.Record{Kind: wal.KindCommit, TxnID: txnID, TS: commitTS}); err != nil {
		return err
	}
	// Crash point: the commit record is durable but the prepared writes
	// were never installed — recovery must make the transaction visible.
	if err := s.cfg.Faults.FireErr("crash.2pc.post-commit-append"); err != nil {
		return err
	}
	// Snapshot the (possibly compaction-repointed) locations and retire
	// the registration. Both happen under installMu (held shared for
	// this whole install), so a compaction either repointed before this
	// line or rebuilds/repoints the installed entries itself.
	s.prepMu.Lock()
	ptrs := append([]wal.Ptr(nil), p.ptrs...)
	delete(s.prepared, txnID)
	s.prepMu.Unlock()
	for i, m := range muts {
		s.install(m, ptrs[i], p.lsns[i])
		s.countOp(m)
	}
	return nil
}
