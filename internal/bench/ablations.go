package bench

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/wal"
)

// AblationLogPerGroup quantifies the paper's §3.4 design choice: one
// log instance per server versus one log per column group. Writes that
// alternate across G logs on the same physical disks seek between log
// heads, while a single log stays sequential — the reason LogBase
// chooses one log for write-heavy workloads.
func AblationLogPerGroup(s Scale) (Table, error) {
	t := Table{
		ID:     "abl-log-per-group",
		Title:  "Single log vs log-per-column-group (modelled disk ms for interleaved writes)",
		Header: []string{"column groups", "single log", "one log per group"},
		Shape:  "single log cheaper: multi-log writes seek between log heads (§3.4)",
	}
	n := s.Rows / 2
	val := value(s.ValueSize, 21)
	hold := true
	for _, groups := range []int{2, 4, 8} {
		dir, err := tempDir("abl-lpg")
		if err != nil {
			return t, err
		}
		fx, err := newFixture(dir)
		if err != nil {
			return t, err
		}
		single, err := wal.Open(fx.fs, "single", wal.Options{SegmentSize: 16 << 20})
		if err != nil {
			return t, err
		}
		_, singleDisk, err := fx.timed(func() error {
			for i := 0; i < n; i++ {
				g := fmt.Sprintf("cg%d", i%groups)
				if _, err := single.Append(&wal.Record{Kind: wal.KindWrite, Group: g, Key: key(i), TS: int64(i), Value: val}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return t, err
		}
		multi := make([]*wal.Log, groups)
		for g := range multi {
			if multi[g], err = wal.Open(fx.fs, fmt.Sprintf("multi-%d", g), wal.Options{SegmentSize: 16 << 20}); err != nil {
				return t, err
			}
		}
		_, multiDisk, err := fx.timed(func() error {
			for i := 0; i < n; i++ {
				l := multi[i%groups]
				if _, err := l.Append(&wal.Record{Kind: wal.KindWrite, Key: key(i), TS: int64(i), Value: val}); err != nil {
					return err
				}
			}
			return nil
		})
		os.RemoveAll(dir)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(groups), ms(singleDisk), ms(multiDisk)})
		if singleDisk > multiDisk {
			hold = false
		}
	}
	t.Hold = hold
	return t, nil
}

// AblationCachePolicy compares read-buffer replacement strategies under
// a skewed read workload — the paper makes the strategy pluggable
// (§3.6.2); this shows why LRU is the default.
func AblationCachePolicy(s Scale) (Table, error) {
	t := Table{
		ID:     "abl-cache-policy",
		Title:  "Read-buffer replacement policy (hit rate under skewed reads)",
		Header: []string{"policy", "hits", "misses", "hit rate"},
		Shape:  "LRU and CLOCK beat FIFO on skewed access",
	}
	policies := []func() cache.Policy{cache.NewLRU, cache.NewClock, cache.NewFIFO}
	rates := map[string]float64{}
	for _, mk := range policies {
		p := mk()
		c := cache.New(int64(s.Rows/10)*int64(s.ValueSize), p)
		// 90/10 skew over s.Rows keys, cache sized for 10%.
		seed := uint64(12345)
		next := func(mod int) int {
			seed = seed*6364136223846793005 + 1442695040888963407
			return int(seed>>33) % mod
		}
		for i := 0; i < s.Ops*4; i++ {
			var k int
			if next(10) != 0 {
				k = next(s.Rows / 10) // hot 10%
			} else {
				k = next(s.Rows)
			}
			ck := fmt.Sprintf("k%08d", k)
			if _, ok := c.Get(ck); !ok {
				c.Put(ck, value(s.ValueSize, 22))
			}
		}
		st := c.Stats()
		rate := float64(st.Hits) / float64(st.Hits+st.Misses)
		rates[p.Name()] = rate
		t.Rows = append(t.Rows, []string{
			p.Name(), fmt.Sprint(st.Hits), fmt.Sprint(st.Misses), fmt.Sprintf("%.3f", rate),
		})
	}
	t.Hold = rates["lru"] >= rates["fifo"] && rates["clock"] >= rates["fifo"]*0.95
	return t, nil
}

// AblationGroupCommit measures the §3.7.2 optimisation: batching commit
// and log records amortises the per-append persistence round trip. The
// deterministic signal is DFS write operations per 1000 records — each
// DFS write is a replicated round trip in a real deployment, and group
// commit's whole point is issuing fewer of them. Wall time is reported
// for reference (on fast local files it is dominated by CPU and the
// leader hand-off, not the per-op cost the paper's HDFS pays).
//
// Each leader is held at the "wal.batch.lead" fault point until every
// writer with records left has queued, so every batch is exactly
// min(writers left, max batch) records and the count repeats on any
// scheduler: without the hold, how full a batch gets depends on which
// writers ran since the last flush.
func AblationGroupCommit(s Scale) (Table, error) {
	t := Table{
		ID:     "abl-group-commit",
		Title:  "Group commit batch size (64 concurrent writers)",
		Header: []string{"max batch", "DFS writes /1k records", "wall ms"},
		Shape:  "DFS write ops per record fall as the batch grows (fewer persistence round trips)",
	}
	const writers = 64
	n := s.Ops
	var opsPerK []float64
	for _, batch := range []int{1, 8, 64} {
		dir, err := tempDir("abl-gc")
		if err != nil {
			return t, err
		}
		fx, err := newFixture(dir)
		if err != nil {
			return t, err
		}
		faults := fault.New(0)
		log, err := wal.Open(fx.fs, "log", wal.Options{SegmentSize: 16 << 20, Faults: faults})
		if err != nil {
			return t, err
		}
		b := wal.NewBatcher(log, batch, 0)
		var active atomic.Int64 // writers with records left
		active.Store(writers)
		faults.Arm("wal.batch.lead", fault.Policy{OnFire: func() {
			for int64(b.Queued()) < active.Load() {
				runtime.Gosched()
			}
		}})
		val := value(s.ValueSize, 23)
		fx.resetStats()
		start := time.Now()
		var wg sync.WaitGroup
		per := n / writers
		errCh := make(chan error, writers)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				defer active.Add(-1)
				for i := 0; i < per; i++ {
					if _, err := b.Append(&wal.Record{Kind: wal.KindWrite, Key: key(w*per + i), TS: int64(i), Value: val}); err != nil {
						errCh <- err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			return t, err
		}
		wall := time.Since(start)
		var writeOps int64
		for i := 0; i < fx.fs.NumDataNodes(); i++ {
			writeOps += fx.fs.DataNode(i).Disk().Stats().WriteOps
		}
		os.RemoveAll(dir)
		total := per * writers
		perK := float64(writeOps) / float64(total) * 1000
		opsPerK = append(opsPerK, perK)
		t.Rows = append(t.Rows, []string{fmt.Sprint(batch), fmt.Sprintf("%.0f", perK), ms(wall)})
	}
	t.Hold = len(opsPerK) == 3 && opsPerK[1] < opsPerK[0] && opsPerK[2] < opsPerK[1]
	return t, nil
}
