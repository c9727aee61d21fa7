package bench

// cdc-tail: the changefeed's two cost regimes, measured off the log.
//
// Catch-up replays retained history by sweeping pinned segments —
// sequential reads whose modelled disk cost amortizes per event.
// A caught-up feed reads new records from the log's in-memory tail,
// the batches the append path already wrote, never from the disk, so a
// subscribed feed must add ~zero modelled disk over the writes
// themselves. That is the paper's "log is the only repository" claim
// applied to CDC — no second pipeline, no double write — and the shape
// states it: the write phase with a live subscriber may cost at most
// overheadTolerance more modelled disk than the identical phase with no
// subscriber (reading the tail touches no I/O, so any real delta is a
// wiring bug, e.g. a feed falling off the tail and sweeping segments),
// while catch-up pays real disk for its sweep.

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/simdisk"
)

// cdcTailSegments is how many sealed, compacted segments the historical
// catch-up has to sweep.
const cdcTailSegments = 4

// cdcTailFixture loads n unique rows in cdcTailSegments rotated and
// compacted batches, so catch-up replays exactly n events from sorted
// segments. The segment size is large enough that the later live
// phases never rotate — both the subscribed and the bare write phase
// append into the same open segment, keeping their costs comparable.
func cdcTailFixture(n, valueSize int) (*core.Server, *simdisk.Clock, string, int64, error) {
	srv, clock, dir, err := newServerFixture("cdc", core.Config{SegmentSize: 16 << 20})
	if err != nil {
		return nil, nil, dir, 0, err
	}
	val := value(valueSize, 11)
	ts := int64(0)
	per := n / cdcTailSegments
	for i := 0; i < n; i++ {
		ts++
		if err := srv.Write(benchTabletID, benchGroup, key(i), ts, val); err != nil {
			return nil, nil, dir, 0, err
		}
		if (i+1)%per == 0 {
			if err := sealSorted(srv); err != nil {
				return nil, nil, dir, 0, err
			}
		}
	}
	// Warm the post-rotation head segment: the first append after a
	// Rotate pays the new-segment creation cost, which belongs to the
	// fixture, not to whichever measured phase happens to write first.
	ts++
	if err := srv.Write(benchTabletID, benchGroup, key(n), ts, val); err != nil {
		return nil, nil, dir, 0, err
	}
	return srv, clock, dir, ts, nil
}

// CDCTail is the registry experiment, over s.Rows/4 rows of history and
// s.Ops/2 live writes. Phases: cdc-catchup (Watch from LSN 0 through
// the compacted history), cdc-tail (writes with a caught-up subscriber,
// every event drained), cdc-writes-base (the identical writes, no
// subscriber).
func CDCTail(s Scale) (Table, error) {
	t := Table{
		ID:     "cdc-tail",
		Title:  "Changefeed: historical catch-up vs live tail off the log",
		Header: []string{"phase", "events", "disk µs/event", "wall µs/event", "events/s (wall)"},
		Shape:  "live tail adds <= 5% modelled disk over bare writes; catch-up pays a real segment sweep",
	}
	n, ops := s.Rows/4, s.Ops/2
	srv, clock, dir, ts, err := cdcTailFixture(n, s.ValueSize)
	if dir != "" {
		defer os.RemoveAll(dir)
	}
	if err != nil {
		return t, err
	}
	defer srv.Close()

	phase := func(name string, count int, fn func() error) (sample, error) {
		m, err := measured(clock, int64(count), fn)
		if err != nil {
			return m, fmt.Errorf("%s: %w", name, err)
		}
		t.Rows = append(t.Rows, []string{name, fmt.Sprint(m.ops),
			f2(m.diskUS()), f2(m.wallUS()), fmt.Sprintf("%.0f", 1e6/m.wallUS())})
		return m, nil
	}

	// Catch-up: open the feed at LSN 0 and drain the whole history. The
	// clock is reset before Watch so the feed goroutine's segment sweep
	// (which runs ahead of Next into the event buffer) is charged too.
	var feed *core.Feed
	drain := func(count int) error {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		for i := 0; i < count; i++ {
			if _, err := feed.Next(ctx); err != nil {
				return fmt.Errorf("event %d/%d: %w", i, count, err)
			}
		}
		return nil
	}
	history := int(ts)
	catch, err := phase("cdc-catchup", history, func() (err error) {
		feed, err = srv.Watch(benchTable, benchGroup, nil, nil, 0)
		if err != nil {
			return err
		}
		return drain(history)
	})
	if err != nil {
		return t, err
	}
	defer feed.Close()

	val := value(s.ValueSize, 13)
	writes := func(count int) error {
		for i := 0; i < count; i++ {
			ts++
			if err := srv.Write(benchTabletID, benchGroup, key(n+int(ts)), ts, val); err != nil {
				return err
			}
		}
		return nil
	}

	// Transition: catch-up swept the active segment, so the next append
	// pays one modelled head seek back to the log's write position — a
	// per-Watch constant, not a per-event tail cost. Spend it between
	// the measured phases.
	if err := writes(1); err != nil {
		return t, err
	}
	if err := drain(1); err != nil {
		return t, err
	}

	// Live tail: the same write workload with the caught-up feed
	// subscribed, every event drained.
	tail, err := phase("cdc-tail", ops, func() error {
		if err := writes(ops); err != nil {
			return err
		}
		return drain(ops)
	})
	if err != nil {
		return t, err
	}
	if err := feed.Close(); err != nil {
		return t, err
	}

	// Baseline: identical writes into the same open segment, nobody
	// listening.
	base, err := phase("cdc-writes-base", ops, func() error { return writes(ops) })
	if err != nil {
		return t, err
	}
	t.Hold = catch.disk > 0 && base.disk > 0 && tail.over(base) <= overheadTolerance
	return t, nil
}
