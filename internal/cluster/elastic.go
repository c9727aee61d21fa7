package cluster

// Elastic tablet management, cluster side: online tablet split, live
// migration, and the routing-epoch protocol that lets clients converge.
//
// Both operations follow the same shape: do the slow work (index
// partition / log replay) while clients keep routing to the old owner,
// then flip the routing metadata and bump the epoch in one critical
// section under the cluster lock. A client that raced the flip gets
// ErrUnknownTablet/ErrTabletFrozen from the old owner, refreshes its
// metadata cache, and retries against the new routing — the paper's
// §3.3 stale-cache protocol doing elasticity duty.

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/txn"
	"repro/internal/wal"
)

// ErrTabletTooSmall is returned by SplitTablet when the tablet's index
// cannot yield an interior split key.
var ErrTabletTooSmall = errors.New("cluster: tablet too small to split")

// nextTabletIDLocked allocates a fresh tablet id for a table. Callers
// hold c.mu.
func (c *Cluster) nextTabletIDLocked(table string) string {
	n := c.tabletSeq[table]
	c.tabletSeq[table] = n + 1
	return fmt.Sprintf("%s/%04d", table, n)
}

// rebuildRouterLocked rebuilds a table's router from tabletSpecs.
// Callers hold c.mu.
func (c *Cluster) rebuildRouterLocked(table string) {
	var tablets []partition.Tablet
	for _, spec := range c.tabletSpecs {
		if spec.Table == table {
			tablets = append(tablets, spec)
		}
	}
	c.routers[table] = partition.NewRouter(tablets)
}

// SplitTablet cuts a served tablet in two at a data-driven midpoint
// (the population midpoint of its largest column-group index) and
// installs the children atomically against the routing metadata: the
// server-side index partition and the router/assignment/epoch update
// happen in one critical section, so clients either route to the parent
// (and retry on ErrUnknownTablet after it vanishes) or to a child. No
// log data is copied — both children keep pointing at the parent's
// records in the owner's log.
func (c *Cluster) SplitTablet(tabletID string) (leftID, rightID string, err error) {
	c.topoMu.Lock()
	defer c.topoMu.Unlock()

	c.mu.RLock()
	spec, ok := c.tabletSpecs[tabletID]
	owner := c.assignments[tabletID]
	st := c.servers[owner]
	c.mu.RUnlock()
	if !ok {
		return "", "", fmt.Errorf("cluster: unknown tablet %s", tabletID)
	}
	if st == nil || !st.alive {
		return "", "", fmt.Errorf("%w: %s (tablet %s)", ErrServerDown, owner, tabletID)
	}
	srv := st.srv
	mid, ok := srv.SplitKey(tabletID)
	if !ok {
		return "", "", fmt.Errorf("%w: %s", ErrTabletTooSmall, tabletID)
	}
	lr, rr, err := spec.Range.Split(mid)
	if err != nil {
		return "", "", err
	}

	// Atomic install: server-side index partition plus metadata flip
	// under the cluster lock. The tablet server drains in-flight
	// mutations itself (install latch); holding c.mu across that is a
	// bounded stall for routing lookups, the price of no window where a
	// client can see the child in the router but not on the server.
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.assignments[tabletID] != owner { // lost a race with failover
		return "", "", fmt.Errorf("cluster: tablet %s reassigned during split", tabletID)
	}
	left := partition.Tablet{ID: c.nextTabletIDLocked(spec.Table), Table: spec.Table, Range: lr}
	right := partition.Tablet{ID: c.nextTabletIDLocked(spec.Table), Table: spec.Table, Range: rr}
	if err := srv.SplitTablet(tabletID, left, right); err != nil {
		return "", "", err
	}
	delete(c.tabletSpecs, tabletID)
	delete(c.assignments, tabletID)
	c.tabletSpecs[left.ID] = left
	c.tabletSpecs[right.ID] = right
	c.assignments[left.ID] = owner
	c.assignments[right.ID] = owner
	c.rebuildRouterLocked(spec.Table)
	c.epoch++
	// Mirror the split to the owner's replicas inside the same critical
	// section, so a read routed at the new epoch finds the child tablet
	// ids on the replica too. A failed mirror poisons that replica (it
	// stops serving reads); the primary split stands.
	for _, rep := range c.servers[owner].replicas {
		rep.SplitTablet(tabletID, left, right) //nolint:errcheck // poisons the replica itself
	}
	// Cluster-wide secondary indexes are sliced per tablet id; the
	// children need their own slices or lookups on the table break.
	if err := c.reregisterSecondaries(spec.Table, srv, left.ID, right.ID); err != nil {
		return left.ID, right.ID, fmt.Errorf("cluster: split installed but secondary reindex failed: %w", err)
	}
	return left.ID, right.ID, nil
}

// reregisterSecondaries installs the per-tablet slices of every
// registered secondary index covering the table on srv for the given
// tablets, backfilling from the current primary indexes.
func (c *Cluster) reregisterSecondaries(table string, srv *core.Server, tabletIDs ...string) error {
	type namedReg struct {
		name string
		reg  secondaryReg
	}
	c.secMu.RLock()
	var regs []namedReg
	for name, reg := range c.secondary {
		if reg.table == table {
			regs = append(regs, namedReg{name, reg})
		}
	}
	c.secMu.RUnlock()
	for _, r := range regs {
		for _, id := range tabletIDs {
			if err := srv.RegisterSecondaryIndex(tabletIndexName(r.name, id), id, r.reg.group, r.reg.extract); err != nil {
				return err
			}
		}
	}
	return nil
}

// moveCatchupRounds bounds the bulk phase of a live migration; each
// round replays the source log tail appended since the previous round.
const moveCatchupRounds = 16

// moveCutoverLag is the applied-records-per-round threshold below which
// the migration proceeds to cutover: the destination is close enough
// that the frozen tail will be tiny.
const moveCutoverLag = 64

// MoveTablet live-migrates a tablet to another server. The destination
// replays the source's log through a ReplaySession while writes keep
// landing on the source (catch-up rounds); once the destination is
// nearly caught up the source tablet is frozen (mutations drain, then
// fail as retryable stale routing), the final tail is replayed, and the
// routing flips with an epoch bump. Reads are served by the source
// until the flip; writers that hit the freeze window converge on the
// destination through the client's stale-routing retry.
func (c *Cluster) MoveTablet(tabletID, destID string) error {
	c.topoMu.Lock()
	defer c.topoMu.Unlock()

	c.mu.RLock()
	spec, ok := c.tabletSpecs[tabletID]
	srcID := c.assignments[tabletID]
	srcSt := c.servers[srcID]
	destSt := c.servers[destID]
	var groups []string
	if ok {
		groups = append([]string(nil), c.tableGroups[spec.Table]...)
	}
	c.mu.RUnlock()
	if !ok {
		return fmt.Errorf("cluster: unknown tablet %s", tabletID)
	}
	if destID == srcID {
		return nil
	}
	if srcSt == nil || !srcSt.alive {
		return fmt.Errorf("%w: source %s (tablet %s)", ErrServerDown, srcID, tabletID)
	}
	if destSt == nil || !destSt.alive {
		return fmt.Errorf("%w: destination %s", ErrServerDown, destID)
	}
	src, dest := srcSt.srv, destSt.srv

	dest.AddTablet(spec, groups)
	// The destination's replicas declare the tablet before the routing
	// flip: the first post-flip write ships immediately, and a record
	// arriving before its tablet declaration would be skipped for good.
	// Their watermark reads 0 (open topology sync) while the tablet's
	// pre-move history is replayed into the destination's log.
	destReps := c.Replicas(destID)
	for _, rep := range destReps {
		rep.BeginTopologySync()
		rep.AddTablet(spec, groups)
	}
	abort := func(err error) error {
		src.UnfreezeTablet(tabletID) //nolint:errcheck // rollback; tablet may not be frozen yet
		dest.RemoveTablet(tabletID)
		for _, rep := range destReps {
			rep.RemoveTablet(tabletID)
			rep.EndTopologySync()
		}
		return err
	}
	rs, err := dest.NewReplaySession(src.Log(), wal.Position{}, []partition.Tablet{spec})
	if err != nil {
		return abort(err)
	}
	// Bulk phase: writes keep landing on the source.
	lag := 0
	for i := 0; i < moveCatchupRounds; i++ {
		n, err := rs.CatchUp()
		if err != nil {
			return abort(err)
		}
		lag = n
		if n < moveCutoverLag {
			break
		}
	}
	// Refuse to freeze behind an unbounded tail: if the writer outran
	// every bulk round, a cutover would block mutations for longer than
	// the clients' retry budget. Give up; the balancer will try again
	// on a later tick (or pick a different action).
	if lag >= moveCutoverLag*4 {
		return abort(fmt.Errorf("cluster: migration of %s not converging (%d records in final bulk round)", tabletID, lag))
	}
	// Cutover: drain and block mutations, replay the frozen tail, flip.
	if err := src.FreezeTablet(tabletID); err != nil {
		return abort(err)
	}
	if _, err := rs.CatchUp(); err != nil {
		return abort(err)
	}
	// A cross-server transaction prepared on the source but not yet
	// committed would lose its commit record to the replay bound (2PC
	// commits on a frozen tablet are refused and retried). Live prepared
	// transactions still hold their validation write locks — abort the
	// cutover and let the balancer try again; orphaned prepare records
	// (locks long released) don't block migration.
	if rs.PendingLive(func(tablet, group string, key []byte) bool {
		return c.svc.LockHeld(txn.LockKey(tablet, group, key))
	}) {
		return abort(fmt.Errorf("cluster: tablet %s has in-flight prepared transactions; migration aborted", tabletID))
	}
	// Install the destination's secondary-index slices before the flip,
	// so there is no window where lookups route to an unregistered
	// server (pre-flip lookups still hit the source's slices).
	if err := c.reregisterSecondaries(spec.Table, dest, tabletID); err != nil {
		return abort(err)
	}
	c.mu.Lock()
	if c.assignments[tabletID] != srcID { // lost a race with failover
		c.mu.Unlock()
		return abort(fmt.Errorf("cluster: tablet %s reassigned during migration", tabletID))
	}
	c.assignments[tabletID] = destID
	c.epoch++
	c.mu.Unlock()
	src.RemoveTablet(tabletID)
	// The destination's replicas need no backfill: they declared the
	// tablet before the bulk phase, so the destination's own log ships
	// them the whole replayed history. Closing the sync restarts their
	// watermark from 0 until that history has drained.
	for _, rep := range destReps {
		rep.EndTopologySync()
	}
	for _, rep := range c.Replicas(srcID) {
		rep.RemoveTablet(tabletID)
	}
	return nil
}
