package bench

// The elasticity scenario: a skewed YCSB workload whose hot band lands
// inside ONE key-range tablet (every "userNNN" key shares a prefix, so
// the uniform CreateTable cut pins the whole table to one server — the
// exact pathology the balancer exists to fix). The static phase runs on
// the frozen topology; the elastic phase interleaves workload rounds
// with deterministic balancer ticks, letting the master split the hot
// tablet and migrate the pieces, then measures post-rebalance
// throughput on the converged topology.

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	logbase "repro"
	"repro/internal/cluster"
	"repro/internal/ycsb"
)

const elasticServers = 4

// hotRangeWorkload is the skewed mix: 90% of ops land on the first
// eighth of the key domain, half reads half updates.
func hotRangeWorkload(records int64, valueSize int) ycsb.Workload {
	return ycsb.Workload{
		Records:        records,
		UpdateFraction: 0.5,
		ValueSize:      valueSize,
		Dist:           ycsb.HotRange{N: records, Lo: 0, Hi: records / 8, Hot: 0.9},
	}
}

// workloadSpread counts the distinct servers serving the POPULATED key
// range. Every YCSB key shares the "user" prefix, so the static uniform
// cut pins the whole workload to one server; the balancer's splits and
// migrations are what raise this above 1.
func workloadSpread(c *cluster.Cluster, records int64) int {
	router, err := c.Router("usertable")
	if err != nil {
		return 0
	}
	asg, _ := c.RoutingSnapshot()
	owners := map[string]bool{}
	for _, tab := range router.Overlapping(ycsb.Key(0), ycsb.Key(records)) {
		owners[asg[tab.ID]] = true
	}
	return len(owners)
}

// ElasticHotRange reproduces the balancer acceptance scenario: static
// topology vs balancer-on, same skewed workload.
func ElasticHotRange(s Scale) (Table, error) {
	t := Table{
		ID:     "elastic-hotrange",
		Title:  "Elasticity: hot-range YCSB, static topology vs master balancer",
		Header: []string{"phase", "ops/sec", "disk ms", "tablets", "workload servers", "splits", "moves"},
		Shape:  "balancer splits + migrates the hot tablet; hot range served by >1 server; post-rebalance throughput not below static",
	}
	records := int64(s.Rows)
	ops := int64(s.Ops)
	w := hotRangeWorkload(records, s.ValueSize)

	runPhase := func(c *cluster.Cluster, db ycsb.DB, n int64, seed int64) (ycsb.Result, time.Duration, error) {
		var res ycsb.Result
		m, err := measured(c.Clock(), n, func() (err error) {
			res, err = ycsb.Run(db, w, n, elasticServers, seed)
			return err
		})
		return res, m.disk, err
	}
	tabletCount := func(c *cluster.Cluster) int {
		router, err := c.Router("usertable")
		if err != nil {
			return 0
		}
		return len(router.Tablets())
	}

	// Phase 1: static topology (the seed behaviour).
	c1, dir1, err := newYCSBCluster(elasticServers)
	if err != nil {
		return t, err
	}
	db1 := &StoreDB{St: logbase.NewClusterClient(c1), Table: "usertable", Group: "f0"}
	if _, err := ycsb.Load(db1, records, s.ValueSize, elasticServers, 1); err != nil {
		return t, err
	}
	resStatic, diskStatic, err := runPhase(c1, db1, ops, 2)
	spreadStatic := workloadSpread(c1, records)
	tabStatic := tabletCount(c1)
	c1.Close()
	os.RemoveAll(dir1)
	if err != nil {
		return t, err
	}

	// Phase 2: same cluster shape with the balancer driving topology.
	c2, dir2, err := newYCSBCluster(elasticServers)
	if err != nil {
		return t, err
	}
	defer os.RemoveAll(dir2)
	defer c2.Close()
	db2 := &StoreDB{St: logbase.NewClusterClient(c2), Table: "usertable", Group: "f0"}
	if _, err := ycsb.Load(db2, records, s.ValueSize, elasticServers, 1); err != nil {
		return t, err
	}
	b := c2.StartBalancer(cluster.BalancerConfig{
		Interval: time.Hour, // ticked manually: deterministic rounds
		MinOps:   64,
		Cooldown: 2,
	})
	// Warm-up rounds: workload slices interleaved with balancer ticks,
	// so the master sees settled load windows between actions.
	for round := 0; round < 10; round++ {
		if _, err := ycsb.Run(db2, w, ops/5, elasticServers, int64(100+round)); err != nil {
			return t, err
		}
		b.Tick()
	}
	resElastic, diskElastic, err := runPhase(c2, db2, ops, 2)
	if err != nil {
		return t, err
	}
	st := b.Stats()
	b.Stop()
	spreadElastic := workloadSpread(c2, records)
	tabElastic := tabletCount(c2)

	t.Rows = append(t.Rows,
		[]string{"static", fmt.Sprintf("%.0f", resStatic.Throughput), ms(diskStatic),
			fmt.Sprint(tabStatic), fmt.Sprint(spreadStatic), "0", "0"},
		[]string{"balanced", fmt.Sprintf("%.0f", resElastic.Throughput), ms(diskElastic),
			fmt.Sprint(tabElastic), fmt.Sprint(spreadElastic),
			fmt.Sprint(st.Splits), fmt.Sprint(st.Moves)},
	)
	t.Hold = st.Splits >= 1 && st.Moves >= 1 && spreadElastic > spreadStatic
	// The throughput claim needs real parallel cores; on starved hosts
	// the deterministic topology assertions above carry the check.
	if runtime.NumCPU() >= elasticServers && resElastic.Throughput < resStatic.Throughput {
		t.Hold = false
	}
	t.Shape += fmt.Sprintf(" (throughput assessed with >=%d CPUs; this host has %d)",
		elasticServers, runtime.NumCPU())
	return t, nil
}

// elasticSmoke is a tiny correctness pass used by tests: it runs the
// elastic phase only and verifies no acknowledged write is lost.
func elasticSmoke(rows, opsPerRound int64, rounds int) error {
	c, dir, err := newYCSBCluster(2)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	defer c.Close()
	st := logbase.NewClusterClient(c)
	db := &StoreDB{St: st, Table: "usertable", Group: "f0"}
	if _, err := ycsb.Load(db, rows, 64, 2, 1); err != nil {
		return err
	}
	b := c.StartBalancer(cluster.BalancerConfig{Interval: time.Hour, MinOps: 32, Cooldown: 1})
	defer b.Stop()
	w := hotRangeWorkload(rows, 64)
	for r := 0; r < rounds; r++ {
		if _, err := ycsb.Run(db, w, opsPerRound, 2, int64(r)); err != nil {
			return err
		}
		b.Tick()
	}
	// Every loaded row still readable.
	for i := int64(0); i < rows; i++ {
		if _, err := st.Get(context.Background(), "usertable", "f0", ycsb.Key(i)); err != nil {
			return fmt.Errorf("row %d lost after balancing: %w", i, err)
		}
	}
	return nil
}
