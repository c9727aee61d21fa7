package cluster

// Read replicas, cluster side: every tablet server gets Config.Replicas
// WAL-shipping standbys (internal/repl), registered in the coordination
// service under ephemeral /replicas/<id> nodes. The read router
// (client.go) sends pinned snapshot reads whose timestamp a
// replica's watermark covers to that replica, round-robin, falling back
// to the primary on the first staleness or failure; topology changes
// (split, migration, failover) mirror to the affected replicas so their
// tablet layout tracks the primary's. When a primary dies, the master
// promotes its most caught-up replica into a first-class tablet server
// instead of scattering the tablets (see promoteReplica).

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/coord"
	"repro/internal/partition"
	"repro/internal/readopt"
	"repro/internal/repl"
	"repro/internal/wal"
)

// replicaState pairs a running replica with its coordination-service
// registration.
type replicaState struct {
	rep  *repl.Replica
	sess *coord.Session
}

// newReplicas creates (but does not start) Config.Replicas standbys per
// tablet server. Runs before any table exists so CreateTable's mirror
// loop reaches them; startReplicas launches shipping once the initial
// tables are declared.
func (c *Cluster) newReplicas() error {
	ids := make([]string, 0, len(c.servers))
	for id := range c.servers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		st := c.servers[id]
		for j := 0; j < c.cfg.Replicas; j++ {
			base := fmt.Sprintf("%s.r%d", id, j)
			rep, err := repl.New(c.fs, st.srv, base, repl.Config{
				LastTS: c.svc.LastTimestamp,
				Server: c.cfg.Server,
			})
			if err != nil {
				return fmt.Errorf("cluster: replica %s: %w", base, err)
			}
			sess := c.svc.NewSession()
			if err := sess.CreateEphemeral("/replicas/"+base, []byte(id)); err != nil {
				return err
			}
			st.replicas = append(st.replicas, &replicaState{rep: rep, sess: sess})
		}
	}
	return nil
}

// startReplicas launches every replica's shipping loop.
func (c *Cluster) startReplicas() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, st := range c.servers {
		for _, rp := range st.replicas {
			if err := rp.rep.Start(); err != nil {
				return err
			}
		}
	}
	return nil
}

// replicasOf snapshots a server's replica list.
func (c *Cluster) replicasOf(serverID string) []*replicaState {
	c.mu.RLock()
	defer c.mu.RUnlock()
	st, ok := c.servers[serverID]
	if !ok {
		return nil
	}
	return append([]*replicaState(nil), st.replicas...)
}

// Replicas returns a server's read replicas (nil if it has none).
func (c *Cluster) Replicas(serverID string) []*repl.Replica {
	states := c.replicasOf(serverID)
	out := make([]*repl.Replica, len(states))
	for i, rp := range states {
		out[i] = rp.rep
	}
	return out
}

// replicaCount returns how many replicas a server has (balancer
// capacity weighting).
func (c *Cluster) replicaCount(serverID string) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if st, ok := c.servers[serverID]; ok {
		return len(st.replicas)
	}
	return 0
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
		r := reps[(start+i)%n].rep
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
		for _, rp := range st.replicas {
			all = append(all, rp.rep)
		}
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
// first-class registration (ephemeral /servers node, assignment flip,
// epoch bump). Every tablet keeps ONE owner; the dead server's other
// replicas are closed (their primary is gone). Returns false when the
// dead server has no usable replica, sending the caller down the
// scatter-recovery path. Caller holds topoMu and failMu.
func (m *Master) promoteReplica(deadID string) (bool, error) {
	c := m.c
	c.mu.Lock()
	deadSt, ok := c.servers[deadID]
	if !ok || len(deadSt.replicas) == 0 {
		c.mu.Unlock()
		return false, nil
	}
	var best *replicaState
	var rest []*replicaState
	for _, rp := range deadSt.replicas {
		if rp.rep.Err() == nil && (best == nil || rp.rep.AppliedLSN() > best.rep.AppliedLSN()) {
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
	srv := best.rep.Detach()
	hw := best.rep.AppliedLSN()
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
	sess := c.svc.NewSession()
	if err := sess.CreateEphemeral("/servers/"+newID, []byte(newID)); err != nil {
		return true, err
	}
	best.sess.Close() // drops the ephemeral /replicas node
	for _, rp := range rest {
		rp.rep.Close()
		rp.sess.Close()
	}
	c.mu.Lock()
	c.servers[newID] = &serverState{srv: srv, sess: sess, alive: true}
	for _, tab := range orphans {
		c.assignments[tab] = newID
	}
	c.epoch++
	c.mu.Unlock()
	return true, nil
}
