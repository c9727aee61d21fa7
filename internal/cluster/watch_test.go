package cluster

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/readopt"
)

// TestClusterWatchSurvivesOverflow floods a two-server cluster feed
// that nobody drains: once the merged event channel fills, every
// per-server feed falls behind its log's 4 KB in-memory tail. Each
// re-reads its gap from its server's segments, so a consumer that comes
// back late still folds every key to exactly what a scan sees.
func TestClusterWatchSurvivesOverflow(t *testing.T) {
	c, err := New(t.TempDir(), Config{
		NumServers: 2,
		Tables:     []TableSpec{{Name: "users", Groups: []string{"profile", "activity"}}},
		Server:     core.Config{SegmentSize: 4 << 10},
		DFS:        dfs.Config{BlockSize: 1 << 16},
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	defer c.Close()
	ctx := context.Background()
	feed, err := c.Watch(ctx, "users", "profile", nil, nil)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	defer feed.Close()

	cl := c.NewClient()
	const n = 3000
	for i := 0; i < n; i++ {
		key := fmt.Appendf([]byte{byte(i * 251)}, "%04d", i) // spread over both servers
		if err := cl.Put("users", "profile", key, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}

	fold := map[string]string{}
	events := 0
	for {
		nctx, cancel := context.WithTimeout(ctx, 500*time.Millisecond)
		ev, err := feed.Next(nctx)
		cancel()
		if errors.Is(err, context.DeadlineExceeded) {
			break // idle: drained
		}
		if err != nil {
			t.Fatalf("Next after %d events: %v", events, err)
		}
		events++
		fold[string(ev.Key)] = string(ev.Value)
	}

	scanned := map[string]string{}
	err = cl.ScanOpts(ctx, "users", "profile", nil, nil, readopt.Options{}, func(r core.Row) bool {
		scanned[string(r.Key)] = string(r.Value)
		return true
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(scanned) != n || len(fold) != n {
		t.Fatalf("fold has %d keys and the scan %d, want %d each", len(fold), len(scanned), n)
	}
	for k, v := range scanned {
		if fold[k] != v {
			t.Fatalf("key %q: fold %q, scan %q", k, fold[k], v)
		}
	}
	var rereads float64
	for _, m := range c.Metrics().Snapshot() {
		if m.Name == "logbase_cdc_feed_rereads_total" {
			rereads += m.Value
		}
	}
	if rereads < 1 {
		t.Errorf("rereads = %v, want >= 1: no server feed fell off its tail", rereads)
	}
}
