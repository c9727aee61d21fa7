package bench

// scan-clustered: the same rows on the same fully compacted log
// (SortedFraction == 1.0 after incremental compaction has produced
// several overlapping sorted segments — the steady state the background
// compactor maintains), scanned end to end twice by the same serial
// scan: once through the clustered read (one forward reader per sorted
// segment, decoding the rows the index walk names), once with
// Config.NoClusteredScan forcing the index-driven path (batched log
// fetches of the same entries). On the modelled disk the index path
// pays a head seek whenever consecutive keys resolve to different
// overlapping segments; the clustered read pays transfer plus one seek
// per read-ahead refill.
// The shape: the clustered path costs at most HALF the index path's
// modelled disk time per row, once the fixture carries enough data for
// per-row costs to dominate the handful of fixed segment-open seeks
// (about 2 MB; TestDeterministicShapesHold asserts it at 100k rows).
//
// autocompact: a sustained write+scan mix with NO manual Compact —
// only the incremental background compactor (driven by deterministic
// ticks, exactly what the Interval loop runs). The shape: the compactor
// holds SortedFraction >= 0.5, i.e. the clustered read path stays
// engaged under sustained load.

import (
	"context"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/readopt"
	"repro/internal/simdisk"
)

const (
	clusterScanRounds = 4
	autoCompactRounds = 8
)

// newModelledDFS is a two-datanode DFS on modelled disks with a clock
// of its own. Its blocks are as large as the fixtures' largest log
// segment (16 MB), so no append phase pays a block rollover that the
// phase it is compared with does not. dir is returned even on error
// once it exists; the caller removes it.
func newModelledDFS(id string) (*dfs.DFS, *simdisk.Clock, string, error) {
	dir, err := tempDir(id)
	if err != nil {
		return nil, nil, "", err
	}
	clock := &simdisk.Clock{}
	fs, err := dfs.New(dir, dfs.Config{
		NumDataNodes: 2, BlockSize: 16 << 20,
		DiskModel: benchDiskModel(), Clock: clock,
	})
	return fs, clock, dir, err
}

// newServerFixture is one embedded tablet server holding the bench
// tablet on a newModelledDFS. The caller also closes the server.
func newServerFixture(id string, cfg core.Config) (*core.Server, *simdisk.Clock, string, error) {
	fs, clock, dir, err := newModelledDFS(id)
	if err != nil {
		return nil, nil, dir, err
	}
	srv, err := core.NewServer(fs, id, cfg)
	if err != nil {
		return nil, nil, dir, err
	}
	srv.AddTablet(benchTablet(), []string{benchGroup})
	return srv, clock, dir, nil
}

// sealSorted rotates the log and compacts every sealed segment that is
// not yet sorted.
func sealSorted(srv *core.Server) error {
	srv.Log().Rotate()
	var nums []uint32
	for _, si := range srv.Log().Segments() {
		if !si.Sorted {
			nums = append(nums, si.Num)
		}
	}
	_, err := srv.CompactSegments(nums)
	return err
}

// clusteredFixture loads rounds x perRound rows in an interleaved key
// pattern and incrementally compacts after each round, so the log ends
// fully sorted as `rounds` overlapping sorted segments.
func clusteredFixture(id string, perRound, valueSize int, noClustered bool) (*core.Server, *simdisk.Clock, string, int, error) {
	srv, clock, dir, err := newServerFixture(id, core.Config{SegmentSize: 16 << 20, NoClusteredScan: noClustered})
	if err != nil {
		return nil, nil, dir, 0, err
	}
	val := value(valueSize, 9)
	ts := int64(0)
	for r := 0; r < clusterScanRounds; r++ {
		// Loaded through the bulk path: only the scan of the compacted
		// result is measured, and a per-record Write would spend most of
		// the fixture's wall time on per-append overhead.
		batch := make([]core.BatchWrite, 0, 1024)
		for i := 0; i < perRound; i++ {
			// Interleaved: round r writes keys r, R+r, 2R+r, ... so each
			// round's sorted segment spans the whole keyspace — the
			// overlapping layout incremental compaction produces under
			// uniformly distributed writes.
			k := i*clusterScanRounds + r
			ts++
			batch = append(batch, core.BatchWrite{Tablet: benchTabletID, Group: benchGroup, Key: key(k), Value: val, TS: ts})
			if len(batch) == cap(batch) || i == perRound-1 {
				if err := srv.ApplyBatch(batch); err != nil {
					return nil, nil, dir, 0, err
				}
				batch = batch[:0]
			}
		}
		if err := sealSorted(srv); err != nil {
			return nil, nil, dir, 0, err
		}
	}
	if f := srv.SortedFraction(); f < 0.999 {
		return nil, nil, dir, 0, fmt.Errorf("fixture not fully compacted: sorted fraction %.3f", f)
	}
	return srv, clock, dir, clusterScanRounds * perRound, nil
}

// ScanClustered is the registry experiment: s.Rows/2 rows per round.
func ScanClustered(s Scale) (Table, error) {
	t := Table{
		ID:     "scan-clustered",
		Title:  "Clustered scan fast path vs index-driven path (fully compacted log)",
		Header: []string{"rows", "clustered disk µs/row", "index disk µs/row", "speedup"},
		Shape:  "clustered scan >= 2x cheaper modelled disk than the index-driven path over the same rows",
	}
	// Both arms run the same serial scan; the only difference is the
	// NoClusteredScan switch on the server underneath it.
	arm := func(id string, noClustered bool) (sample, error) {
		srv, clock, dir, n, err := clusteredFixture(id, s.Rows/2, s.ValueSize, noClustered)
		if dir != "" {
			defer os.RemoveAll(dir)
		}
		if err != nil {
			return sample{}, err
		}
		defer srv.Close()
		rows := 0
		m, err := measured(clock, int64(n), func() error {
			return srv.ParallelScan(context.Background(), benchTabletID, benchGroup,
				core.ScanOptions{TS: int64(4 * n), Workers: 1},
				func(rs []core.Row) error { rows += len(rs); return nil })
		})
		if err == nil && rows != n {
			err = fmt.Errorf("%s saw %d rows, want %d", id, rows, n)
		}
		return m, err
	}
	cl, err := arm("scan-clustered", false)
	if err != nil {
		return t, err
	}
	idx, err := arm("scan-index", true)
	if err != nil {
		return t, err
	}
	speedup := idx.diskUS() / cl.diskUS()
	t.Rows = append(t.Rows, []string{
		fmt.Sprint(cl.ops),
		f2(cl.diskUS()),
		f2(idx.diskUS()),
		fmt.Sprintf("%.1fx", speedup),
	})
	t.Hold = speedup >= 2
	return t, nil
}

// AutoCompactChurn is the registry experiment: s.Rows/4 keys under a
// sustained write+scan churn with only the background compactor's tick
// keeping the log clustered — the "stays fast without a manual vacuum"
// contract.
func AutoCompactChurn(s Scale) (Table, error) {
	t := Table{
		ID:     "autocompact",
		Title:  "Background incremental compaction under write+scan churn",
		Header: []string{"ops", "disk µs/op", "final sorted fraction"},
		Shape:  "SortedFraction stays >= 0.5 with no manual Compact",
	}
	srv, clock, dir, err := newServerFixture("autocompact", core.Config{SegmentSize: 1 << 20})
	if dir != "" {
		defer os.RemoveAll(dir)
	}
	if err != nil {
		return t, err
	}
	defer srv.Close()
	srv.SetRetention(benchTable, core.RetentionPolicy{KeepVersions: 2})

	ctx := context.Background()
	n := s.Rows / 4
	val := value(s.ValueSize, 3)
	ts := int64(0)
	put := func(i int) error {
		ts++
		return srv.Write(benchTabletID, benchGroup, key(i), ts, val)
	}
	// The load, then per round: a quarter overwritten, a sliver deleted
	// and re-created, every row scanned.
	ops := int64(n + autoCompactRounds*(n/4+2*(n/32)+n))
	m, err := measured(clock, ops, func() error {
		for i := 0; i < n; i++ {
			if err := put(i); err != nil {
				return err
			}
		}
		for round := 0; round < autoCompactRounds; round++ {
			// Sustained churn: overwrite a rotating quarter of the
			// keyspace (creating beyond-retention garbage), delete and
			// re-create a sliver, and scan everything — all while ONLY
			// the background compactor's tick runs.
			lo := (round * n / 4) % n
			for i := 0; i < n/4; i++ {
				if err := put((lo + i) % n); err != nil {
					return err
				}
			}
			for i := 0; i < n/32; i++ {
				k := (lo + i) % n
				ts++
				if err := srv.Delete(benchTabletID, benchGroup, key(k), ts); err != nil {
					return err
				}
				if err := put(k); err != nil {
					return err
				}
			}
			rows := 0
			if err := srv.FullScanOpts(ctx, benchTabletID, benchGroup, readopt.Options{}, func(core.Row) bool { rows++; return true }); err != nil {
				return err
			}
			if rows != n {
				return fmt.Errorf("autocompact round %d: scan saw %d rows, want %d", round, rows, n)
			}
			if _, _, err := srv.AutoCompactTick(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return t, err
	}
	frac := srv.SortedFraction()
	t.Rows = append(t.Rows, []string{
		fmt.Sprint(m.ops),
		f2(m.diskUS()),
		fmt.Sprintf("%.3f", frac),
	})
	t.Hold = frac >= 0.5
	return t, nil
}
