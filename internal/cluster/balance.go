package cluster

// The load balancer is the master's elasticity duty (paper §3.3 gives
// the master "the load balance of the system" next to tablet
// assignment): each Tick samples every live server's windowed
// per-tablet load, finds the hot server, and picks ONE action:
//
//   - move the hottest tablet that improves the hot/cold spread, or
//   - split the hot server's dominant tablet when no move helps (a
//     single hot tablet cannot be shed whole; its halves can).
//
// The caller ticks the balancer, so tests and benches drive it in
// deterministic rounds. One action per tick plus a per-tablet cooldown
// keeps decisions on settled windows and prevents thrash; the routing
// epoch bump in each action is what drags client caches along.

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

const (
	// balanceMoveRatio is the hottest/coldest server op ratio above
	// which the cluster counts as imbalanced.
	balanceMoveRatio = 2.0
	// balanceSplitShare is the share of its server's ops a single tablet
	// must carry to be split when no migration helps.
	balanceSplitShare = 0.5
)

// BalancerConfig tunes the balancer. Zero values take the documented
// defaults.
type BalancerConfig struct {
	// MinOps: below this many windowed ops on the hottest server the
	// cluster is idle and no action is taken (default 512).
	MinOps int64
	// Cooldown: ticks a tablet (or a split's children) rests after an
	// action, letting load windows resettle (default 4).
	Cooldown int64
}

func (cfg BalancerConfig) withDefaults() BalancerConfig {
	if cfg.MinOps <= 0 {
		cfg.MinOps = 512
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 4
	}
	return cfg
}

// BalancerStats counts what the balancer did.
type BalancerStats struct {
	Ticks, Splits, Moves, Errors int64
}

// Balancer rebalances the cluster one Tick at a time.
type Balancer struct {
	c   *Cluster
	cfg BalancerConfig

	ticks, splits, moves, errs atomic.Int64

	mu       sync.Mutex
	tick     int64
	cooldown map[string]int64 // tablet id -> tick until which it rests
}

// NewBalancer returns a balancer over the cluster.
func (c *Cluster) NewBalancer(cfg BalancerConfig) *Balancer {
	return &Balancer{c: c, cfg: cfg.withDefaults(), cooldown: make(map[string]int64)}
}

// Stats returns the balancer's counters.
func (b *Balancer) Stats() BalancerStats {
	return BalancerStats{
		Ticks:  b.ticks.Load(),
		Splits: b.splits.Load(),
		Moves:  b.moves.Load(),
		Errors: b.errs.Load(),
	}
}

// serverLoad aggregates one server's load sample.
type serverLoad struct {
	id       string
	srv      *core.Server
	replicas int
	ops      int64
	tablets  []core.TabletLoad
}

// Tick runs one balancing round: sample every live server's load
// window and take at most one split or move.
func (b *Balancer) Tick() {
	b.ticks.Add(1)
	b.mu.Lock()
	b.tick++
	now := b.tick
	b.mu.Unlock()

	c := b.c
	c.mu.RLock()
	var loads []serverLoad
	for id, st := range c.servers {
		if st.alive {
			loads = append(loads, serverLoad{id: id, srv: st.srv, replicas: len(st.replicas)})
		}
	}
	c.mu.RUnlock()
	sort.Slice(loads, func(i, j int) bool { return loads[i].id < loads[j].id })
	for i := range loads {
		sl := &loads[i]
		sl.tablets = sl.srv.SampleLoad()
		for _, t := range sl.tablets {
			sl.ops += t.Ops
		}
		// Read replicas are scan capacity: pinned analytical reads that
		// would land on this primary are absorbed by its standbys, so a
		// server with R replicas weighs in at 1/(1+R) of its sampled ops
		// — it takes proportionally more load before the balancer calls
		// it hot.
		sl.ops /= int64(1 + sl.replicas)
	}
	if act := b.decide(loads, now); act != nil {
		act()
	}
}

// decide picks at most one action from the sampled loads.
func (b *Balancer) decide(loads []serverLoad, now int64) func() {
	if len(loads) < 2 {
		return nil
	}
	hot, cold := loads[0], loads[0]
	for _, sl := range loads[1:] {
		if sl.ops > hot.ops {
			hot = sl
		}
		if sl.ops < cold.ops {
			cold = sl
		}
	}
	if hot.ops < b.cfg.MinOps {
		return nil // idle cluster
	}
	if float64(hot.ops) <= balanceMoveRatio*float64(cold.ops) {
		return nil // balanced enough
	}
	tablets := append([]core.TabletLoad(nil), hot.tablets...)
	sort.Slice(tablets, func(i, j int) bool { return tablets[i].Ops > tablets[j].Ops })

	// Cooldown bookkeeping happens here under b.mu; the returned action
	// closure runs lock-free (rest() re-acquires for split children).
	b.mu.Lock()
	defer b.mu.Unlock()
	cooling := func(id string) bool { return b.cooldown[id] > now }

	// Prefer a migration that strictly improves the hot/cold spread.
	for _, t := range tablets {
		if t.Ops == 0 {
			break
		}
		if cooling(t.Tablet) {
			continue
		}
		if cold.ops+t.Ops < hot.ops {
			tabletID, destID := t.Tablet, cold.id
			b.cooldown[tabletID] = now + b.cfg.Cooldown
			return func() {
				if err := b.c.MoveTablet(tabletID, destID); err != nil {
					b.errs.Add(1)
					return
				}
				b.moves.Add(1)
			}
		}
	}
	// No move helps: the hot server is dominated by one hot tablet.
	// Split it so the halves can be separated on a later tick.
	top := tablets[0]
	if cooling(top.Tablet) || float64(top.Ops) < balanceSplitShare*float64(hot.ops) {
		return nil
	}
	b.cooldown[top.Tablet] = now + b.cfg.Cooldown
	return func() {
		leftID, rightID, err := b.c.SplitTablet(top.Tablet)
		if err != nil {
			b.errs.Add(1)
			return
		}
		b.splits.Add(1)
		b.rest(leftID, rightID)
	}
}

// rest puts tablets on cooldown for the configured number of ticks.
func (b *Balancer) rest(ids ...string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, id := range ids {
		b.cooldown[id] = b.tick + b.cfg.Cooldown
	}
}
