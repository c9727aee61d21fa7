package bench

// replica-scan: the offload and shipping-overhead claims, measured.
//
// A WAL-shipping replica serves pinned analytical scans from ITS OWN
// log copy, so the primary's disks see none of the scan — that is the
// whole point of log-replication read scaling on a log-only store. The
// shape has two halves: (1) the pinned scan on the replica charges ZERO
// modelled disk to the primary; (2) a caught-up replica draining the
// live tail adds at most overheadTolerance modelled disk to the
// primary's write path, because the tail ships from the primary log's
// in-memory tail, never from a second read of the log. The historical
// catch-up — the one phase that DOES read the primary's segments — is
// reported separately at its sequential-sweep cost.

import (
	"context"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/repl"
	"repro/internal/simdisk"
)

// replicaFixture builds the primary on its own modelled DFS and loads n
// sorted rows of history for the replica to catch up over.
func replicaFixture(n, valueSize int) (*core.Server, *simdisk.Clock, string, *atomic.Int64, error) {
	srv, clock, dir, err := newServerFixture("prim", core.Config{SegmentSize: 16 << 20})
	if err != nil {
		return nil, nil, dir, nil, err
	}
	ts := &atomic.Int64{}
	val := value(valueSize, 17)
	for i := 0; i < n; i++ {
		if err := srv.Write(benchTabletID, benchGroup, key(i), ts.Add(1), val); err != nil {
			return nil, nil, dir, nil, err
		}
	}
	if err := sealSorted(srv); err != nil {
		return nil, nil, dir, nil, err
	}
	return srv, clock, dir, ts, nil
}

// ReplicaScan is the registry experiment, over s.Rows/4 rows of history
// and s.Ops/4 writes per phase. Phases: repl-writes-base (primary
// writes, nobody shipping), repl-catchup (replica bootstrap replay of
// the retained history; disk is primary sweep + replica re-append),
// repl-writes-shipped (the identical writes with a caught-up replica
// draining the live tail), replica-scan (pinned scan served by the
// replica), and primary-scan-under-writes (the same pinned scan paid by
// the primary's own disks).
func ReplicaScan(s Scale) (Table, error) {
	t := Table{
		ID:     "replica-scan",
		Title:  "Read replicas: pinned scan offload vs primary scan under writes",
		Header: []string{"phase", "ops", "disk µs/op", "wall µs/op"},
		Shape:  "replica scan charges zero primary disk; live shipping adds <= 5% to the write path",
	}
	n, ops := s.Rows/4, s.Ops/4
	primary, pclock, dir, ts, err := replicaFixture(n, s.ValueSize)
	if dir != "" {
		defer os.RemoveAll(dir)
	}
	if err != nil {
		return t, err
	}
	defer primary.Close()

	report := func(name string, m sample) {
		t.Rows = append(t.Rows, []string{name, fmt.Sprint(m.ops),
			f2(m.diskUS()), f2(m.wallUS())})
	}
	val := value(s.ValueSize, 19)
	next := n
	writes := func(count int) error {
		for i := 0; i < count; i++ {
			if err := primary.Write(benchTabletID, benchGroup, key(next), ts.Add(1), val); err != nil {
				return err
			}
			next++
		}
		return nil
	}

	// Warm the post-rotation head segment: the first append after the
	// fixture's Rotate pays the new-segment creation cost, which would
	// otherwise inflate the baseline and blunt the shipping ceiling.
	if err := writes(1); err != nil {
		return t, err
	}

	// Baseline: the primary's write path with nobody shipping.
	base, err := measured(pclock, int64(ops), func() error { return writes(ops) })
	if err != nil {
		return t, err
	}
	report("repl-writes-base", base)

	// Bootstrap: the replica (on its own modelled disks) replays the
	// retained history — the primary pays a sequential segment sweep,
	// the replica pays the re-append of every record.
	rfs, rclock, rdir, err := newModelledDFS("replica-standby")
	if rdir != "" {
		defer os.RemoveAll(rdir)
	}
	if err != nil {
		return t, err
	}
	rep, err := repl.New(rfs, primary, "prim.r0", repl.Config{
		LastTS: ts.Load,
		Server: core.Config{SegmentSize: 16 << 20},
	})
	if err != nil {
		return t, err
	}
	rep.AddTablet(benchTablet(), []string{benchGroup})
	defer rep.Close()
	catch, err := measured(pclock, int64(n+ops+1), func() error {
		if err := rep.Start(); err != nil {
			return err
		}
		return rep.WaitForTS(ts.Load(), 2*time.Minute)
	})
	if err != nil {
		return t, err
	}
	catch.disk += rclock.Elapsed() // the replica's disks were idle until now
	report("repl-catchup", catch)

	// Transition: catch-up swept the primary's segments, so the next
	// append pays one modelled head seek back to the log's write
	// position — a per-bootstrap constant, not a shipping cost. Spend
	// it between the measured phases (same treatment as cdc-tail).
	if err := writes(1); err != nil {
		return t, err
	}
	if err := rep.WaitForTS(ts.Load(), 2*time.Minute); err != nil {
		return t, err
	}

	// Live shipping: the identical write workload with the caught-up
	// replica attached and fully drained. Only the primary's clock is
	// charged — the tail is read from the primary log's memory, not its
	// disks.
	shipped, err := measured(pclock, int64(ops), func() error {
		if err := writes(ops); err != nil {
			return err
		}
		return rep.WaitForTS(ts.Load(), 2*time.Minute)
	})
	if err != nil {
		return t, err
	}
	report("repl-writes-shipped", shipped)

	// The analytical read, both ways, pinned at the same snapshot over
	// history + the freshly shipped (unsorted) tail.
	pin := ts.Load()
	total := n + 2*ops + 2 // fixture + both write phases + warm-up and transition rows
	ctx := context.Background()
	scan := func(srv *core.Server) error {
		rows := 0
		if err := srv.ParallelScan(ctx, benchTabletID, benchGroup, core.ScanOptions{TS: pin}, func(batch []core.Row) error {
			rows += len(batch)
			return nil
		}); err != nil {
			return err
		}
		if rows != total {
			return fmt.Errorf("pinned scan saw %d rows, want %d", rows, total)
		}
		return nil
	}
	// Stop shipping first: Detach flushes the replica's durable cursor,
	// which an idle shipping loop would otherwise write mid-scan and
	// charge to it. The detached server serves the scan.
	rsrv := rep.Detach()
	defer rsrv.Close()
	idle := pclock.Elapsed()
	rscan, err := measured(rclock, int64(total), func() error { return scan(rsrv) })
	if err != nil {
		return t, err
	}
	// The offload claim: the replica served the whole scan from its own
	// log copy, so the primary's clock did not move.
	leak := pclock.Elapsed() - idle
	report("replica-scan", rscan)
	pscan, err := measured(pclock, int64(total), func() error { return scan(primary) })
	if err != nil {
		return t, err
	}
	report("primary-scan-under-writes", pscan)

	report("replica-scan charged to primary", sample{ops: int64(total), disk: leak})
	t.Hold = leak == 0 && base.disk > 0 && shipped.over(base) <= overheadTolerance
	return t, nil
}
