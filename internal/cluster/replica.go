package cluster

// Read replicas, cluster side: StartReplica makes every WAL-shipping
// standby (internal/repl) — Config.Replicas per server at startup (a
// reopened cluster's once Recover has run), or one at runtime — and
// lists it on its primary's server entry. A replica's watermark samples
// the coordination service's low-water mark, the newest timestamp below
// every write still in flight (coord.Service.LowWater). The read router
// (client.go) sends pinned snapshot reads whose timestamp a replica's
// watermark covers to that replica, round-robin, falling back to the
// primary on the first staleness or failure; topology changes (split,
// migration, failover) mirror to the affected replicas so their tablet
// layout tracks the primary's. When a primary dies, its most caught-up
// replica is promoted into a first-class tablet server instead of
// scattering the tablets (see promoteReplica).

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/readopt"
	"repro/internal/repl"
	"repro/internal/wal"
)

// StartReplica starts a WAL-shipping read replica of a live server
// and registers it with the read router. The replica mirrors the
// server's current tablets and retention policies (tablets and
// policies that arrive later reach it like every replica) and begins
// catching up at once. Its id is <server>.r<n>, n counting the server's
// replicas from 0 in each incarnation of the cluster, so a restarted
// deployment's replica resumes from its durable cursor. Close the
// cluster to stop it.
func (c *Cluster) StartReplica(serverID string) (*repl.Replica, error) {
	c.mu.Lock()
	st, ok := c.servers[serverID]
	if !ok || !st.alive {
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: no live server %s", serverID)
	}
	base := fmt.Sprintf("%s.r%d", serverID, st.replicaSeq)
	st.replicaSeq++
	c.mu.Unlock()
	// Opening the replica's server reads the DFS; routing does not wait
	// on it.
	rep, err := repl.New(c.fs, st.srv, base, repl.Config{
		LastTS: c.svc.LowWater,
		Server: c.replicaConfig(),
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: replica %s: %w", base, err)
	}
	// Holding mu from the tablet snapshot through the registration means
	// every tablet the server gains is either in the snapshot or mirrored
	// by CreateTable, a split or a failover.
	c.mu.Lock()
	if !st.alive {
		c.mu.Unlock()
		rep.Close()
		return nil, fmt.Errorf("cluster: no live server %s", serverID)
	}
	tables := map[string]bool{}
	for tab, owner := range c.assignments {
		if owner == serverID {
			spec := c.tabletSpecs[tab]
			rep.AddTablet(spec, c.tableGroups[spec.Table])
			tables[spec.Table] = true
		}
	}
	st.replicas = append(st.replicas, rep)
	c.mu.Unlock()
	// After the registration, so a concurrent SetRetention either lists
	// this replica or set the primary's policy before it is copied here.
	for table := range tables {
		if p, ok := st.srv.Retention(table); ok {
			rep.SetRetention(table, p)
		}
	}
	if err := rep.Start(); err != nil {
		c.mu.Lock()
		st.replicas = slices.DeleteFunc(st.replicas, func(x *repl.Replica) bool { return x == rep })
		c.mu.Unlock()
		rep.Close()
		return nil, err
	}
	return rep, nil
}

// startReplicas starts Config.Replicas replicas of every live server.
func (c *Cluster) startReplicas() error {
	for _, id := range c.LiveServers() {
		for j := 0; j < c.cfg.Replicas; j++ {
			if _, err := c.StartReplica(id); err != nil {
				return err
			}
		}
	}
	return nil
}

// replicaConfig configures a replica's own server: the primaries'
// tuning, registry and fault registry, but no background compaction —
// its log is already the primary's committed stream, and compaction
// (with the crash points it fires) stays on the primaries.
func (c *Cluster) replicaConfig() core.Config {
	sc := c.serverConfig()
	sc.AutoCompactInterval = 0
	return sc
}

// Replicas snapshots a server's read replicas (nil if it has none).
func (c *Cluster) Replicas(serverID string) []*repl.Replica {
	c.mu.RLock()
	defer c.mu.RUnlock()
	st, ok := c.servers[serverID]
	if !ok {
		return nil
	}
	return slices.Clone(st.replicas)
}

// replicaFor picks a replica of the named primary able to serve a read
// pinned at ts under the resolved options (round-robin), or nil when
// the read must stay on the primary: latest-timestamp reads, explicit
// Primary, no replica caught up to ts, or every caught-up replica
// beyond the MaxLag bound. The pick's reads-served counter is bumped.
func (c *Cluster) replicaFor(primaryID string, ts int64, ro readopt.Options) *repl.Replica {
	if ts <= 0 || ro.Primary {
		return nil
	}
	c.mu.RLock()
	st, ok := c.servers[primaryID]
	if !ok || len(st.replicas) == 0 {
		c.mu.RUnlock()
		return nil
	}
	reps := st.replicas
	n := len(reps)
	start := int(c.replRR.Add(1)-1) % n
	var pick *repl.Replica
	for i := 0; i < n; i++ {
		r := reps[(start+i)%n]
		// A replica whose circuit breaker is open is shedding reads
		// until a probe succeeds; round-robin on to the next candidate.
		if !r.Serves(ts, ro) || !c.breakers.allow("replica:"+r.BaseID()) {
			continue
		}
		pick = r
		break
	}
	c.mu.RUnlock()
	if pick != nil {
		pick.NoteRead(1)
	}
	return pick
}

// WaitForReplicaTS blocks until every healthy replica's watermark
// covers ts (test and example synchronisation).
func (c *Cluster) WaitForReplicaTS(ts int64, timeout time.Duration) error {
	c.mu.RLock()
	var all []*repl.Replica
	for _, st := range c.servers {
		all = append(all, st.replicas...)
	}
	c.mu.RUnlock()
	for _, r := range all {
		if r.Err() != nil {
			continue
		}
		if err := r.WaitForTS(ts, timeout); err != nil {
			return err
		}
	}
	return nil
}

// promoteReplica is the replica-aware half of failover: the dead
// server's most caught-up healthy replica already holds everything
// through its shipping cursor in its OWN log and indexes, so promotion
// is a ReplaySession over the dead primary's log with the high-water
// set to that cursor — only the unshipped delta replays — followed by a
// first-class server entry (assignment flip, epoch bump). Every tablet
// keeps ONE owner; the dead server's other replicas are closed (their
// primary is gone). Returns false when the dead server has no usable
// replica, sending the caller down the scatter-recovery path. Caller
// holds topoMu and failMu.
func (c *Cluster) promoteReplica(deadID string) (bool, error) {
	c.mu.Lock()
	deadSt, ok := c.servers[deadID]
	if !ok || len(deadSt.replicas) == 0 {
		c.mu.Unlock()
		return false, nil
	}
	var best *repl.Replica
	var rest []*repl.Replica
	for _, rp := range deadSt.replicas {
		if rp.Err() == nil && (best == nil || rp.AppliedLSN() > best.AppliedLSN()) {
			if best != nil {
				rest = append(rest, best)
			}
			best = rp
		} else {
			rest = append(rest, rp)
		}
	}
	if best == nil {
		c.mu.Unlock()
		return false, nil
	}
	deadSt.replicas = nil
	var orphans []string
	for tab, owner := range c.assignments {
		if owner == deadID {
			orphans = append(orphans, tab)
		}
	}
	sort.Strings(orphans)
	specs := make([]partition.Tablet, 0, len(orphans))
	for _, tab := range orphans {
		specs = append(specs, c.tabletSpecs[tab])
	}
	deadSrv := deadSt.srv
	c.mu.Unlock()

	// Shipping stops; the replica's server survives under our control.
	srv := best.Detach()
	hw := best.AppliedLSN()
	if len(specs) > 0 {
		rs, err := srv.NewReplaySession(deadSrv.Log(), wal.Position{}, specs)
		if err != nil {
			return true, fmt.Errorf("cluster: promote %s: %w", srv.ID(), err)
		}
		rs.SetHighWater(hw)
		if _, err := rs.CatchUp(); err != nil {
			return true, fmt.Errorf("cluster: promote %s: replay delta past LSN %d: %w", srv.ID(), hw, err)
		}
	}

	newID := srv.ID()
	for _, rp := range rest {
		rp.Close()
	}
	c.mu.Lock()
	c.servers[newID] = &serverState{srv: srv, alive: true}
	for _, tab := range orphans {
		c.assignments[tab] = newID
	}
	c.epoch++
	c.mu.Unlock()
	return true, nil
}
