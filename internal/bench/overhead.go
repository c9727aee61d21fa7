package bench

// The overhead pair: the same Put-then-Scan workload on the same
// deterministic fixture, once with a piece of machinery switched on and
// once with it off. The machinery — observability, fault-injection
// hooks — touches atomics, span structs and nil checks, never the I/O
// path, so the "on" arm may cost at most overheadTolerance more
// modelled disk than the "off" arm; any real delta is a wiring bug
// (tracing forcing extra log reads, an injection point leaking into the
// write itself). Wall-clock deltas are reported for humans and not
// asserted: they wobble with runner load.

import (
	"context"
	"fmt"
	"os"

	logbase "repro"
	"repro/internal/cluster"
	"repro/internal/fault"
)

// overheadTolerance is the ceiling every "costs nothing on disk" shape
// in this package is held to: observability, fault hooks, a live
// changefeed subscriber and live log shipping.
const overheadTolerance = 0.05

// ObsOverhead compares full instrumentation (metrics registry recording,
// every operation traced at threshold 0 and rendered to a discarding
// slow-op sink: the worst case) against Config.DisableMetrics and no
// tracer.
func ObsOverhead(s Scale) (Table, error) {
	return overheadPair(s, Table{
		ID:     "obs-overhead",
		Title:  "Observability overhead: instrumented vs disabled Put/Scan",
		Header: []string{"op", "ops", "disabled disk µs/op", "instrumented disk µs/op", "disk Δ%", "wall Δ%"},
		Shape:  "metrics + threshold-0 tracing add <= 5% modelled disk cost on Put and Scan",
	}, func(cfg *cluster.Config, on bool) {
		cfg.Server.DisableMetrics = !on
		if on {
			cfg.SlowOpLog = func(string) {} // trace everything, discard the trees
			cfg.SlowOpThreshold = 0
		}
	})
}

// FaultOverhead compares a fault.Registry wired through the disk, DFS
// and WAL hook points with nothing armed (the production disabled path)
// against a nil registry.
func FaultOverhead(s Scale) (Table, error) {
	return overheadPair(s, Table{
		ID:     "fault-overhead",
		Title:  "Fault-injection overhead: wired-but-disarmed registry vs nil",
		Header: []string{"op", "ops", "nil disk µs/op", "wired disk µs/op", "disk Δ%", "wall Δ%"},
		Shape:  "a disarmed fault registry adds <= 5% modelled disk cost on Put and Scan",
	}, func(cfg *cluster.Config, on bool) {
		if on {
			reg := fault.New(1) // present at every hook, nothing armed
			cfg.Server.Faults, cfg.DFS.Faults = reg, reg
		}
	})
}

// overheadPair runs the workload on both arms and fills t: one row per
// op, Hold when the "off" arm measured real disk time and the "on" arm
// stayed within overheadTolerance of it on every op.
func overheadPair(s Scale, t Table, arm func(cfg *cluster.Config, on bool)) (Table, error) {
	run := func(on bool) (put, scan sample, err error) {
		c, dir, err := newBenchCluster(t.ID, func(cfg *cluster.Config) { arm(cfg, on) })
		if err != nil {
			return put, scan, err
		}
		defer os.RemoveAll(dir)
		defer c.Close()
		st := logbase.NewClusterClient(c)
		ctx := context.Background()
		n := int64(s.Rows)
		val := value(s.ValueSize, 7)
		if put, err = measured(c.Clock(), n, func() error {
			for i := int64(0); i < n; i++ {
				if err := st.Put(ctx, "usertable", "f0", key(int(i)), val); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return put, scan, err
		}
		scan, err = measured(c.Clock(), n, func() error {
			it := st.Scan(ctx, "usertable", "f0", nil, nil)
			defer it.Close()
			rows := int64(0)
			for it.Next() {
				rows++
			}
			if err := it.Err(); err != nil {
				return err
			}
			if rows != n {
				return fmt.Errorf("scan saw %d rows, want %d", rows, n)
			}
			return it.Close()
		})
		return put, scan, err
	}
	putOn, scanOn, err := run(true)
	if err != nil {
		return t, err
	}
	putOff, scanOff, err := run(false)
	if err != nil {
		return t, err
	}
	t.Hold = true
	for _, p := range []struct {
		op      string
		on, off sample
	}{{"put", putOn, putOff}, {"scan", scanOn, scanOff}} {
		t.Rows = append(t.Rows, []string{
			p.op,
			fmt.Sprint(p.on.ops),
			f2(p.off.diskUS()),
			f2(p.on.diskUS()),
			fmt.Sprintf("%+.1f", p.on.over(p.off)*100),
			fmt.Sprintf("%+.1f", (p.on.wallUS()-p.off.wallUS())/p.off.wallUS()*100),
		})
		t.Hold = t.Hold && p.off.disk > 0 && p.on.over(p.off) <= overheadTolerance
	}
	return t, nil
}
