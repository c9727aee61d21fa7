package tpcw

import (
	"context"
	"testing"

	logbase "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/readopt"
)

func newCluster(t *testing.T, n int) (*cluster.Cluster, logbase.Store) {
	t.Helper()
	c, err := cluster.New(t.TempDir(), cluster.Config{
		NumServers: n,
		Tables:     Tables(),
		Server:     core.Config{SegmentSize: 1 << 20},
		DFS:        dfs.Config{BlockSize: 1 << 16},
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	return c, logbase.NewClusterClient(c)
}

func TestLoadPopulatesTables(t *testing.T) {
	c, st := newCluster(t, 2)
	if err := Load(st, 100, 50, 2); err != nil {
		t.Fatalf("Load: %v", err)
	}
	cl := c.NewClient()
	if _, err := cl.Get("item", "detail", itemKey(0)); err != nil {
		t.Errorf("item 0 missing: %v", err)
	}
	if _, err := cl.Get("item", "detail", itemKey(99)); err != nil {
		t.Errorf("item 99 missing: %v", err)
	}
	if _, err := cl.Get("customer", "cart", customerKey(49)); err != nil {
		t.Errorf("customer 49 missing: %v", err)
	}
}

func TestBrowsingMixMostlyReads(t *testing.T) {
	c, st := newCluster(t, 2)
	if err := Load(st, 200, 100, 2); err != nil {
		t.Fatalf("Load: %v", err)
	}
	res, err := Run(st, Browsing, 200, 100, 400, 2, 1)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Txns != 400 {
		t.Errorf("completed %d txns, want 400", res.Txns)
	}
	if res.Throughput <= 0 {
		t.Error("zero throughput")
	}
	// ~5% updates → few orders written.
	cl := c.NewClient()
	orders := 0
	cl.ScanOpts(context.Background(), "orders", "order", nil, nil, readopt.Options{}, func(core.Row) bool { orders++; return true })
	if orders == 0 || orders > 60 {
		t.Errorf("browsing mix wrote %d orders, want ~20 of 400", orders)
	}
}

func TestOrderingMixWritesOrders(t *testing.T) {
	c, st := newCluster(t, 2)
	if err := Load(st, 100, 50, 2); err != nil {
		t.Fatalf("Load: %v", err)
	}
	res, err := Run(st, Ordering, 100, 50, 300, 3, 2)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Txns != 300 {
		t.Errorf("completed %d txns", res.Txns)
	}
	cl := c.NewClient()
	orders := 0
	cl.ScanOpts(context.Background(), "orders", "order", nil, nil, readopt.Options{}, func(core.Row) bool { orders++; return true })
	if orders < 100 {
		t.Errorf("ordering mix wrote only %d orders of ~150 expected", orders)
	}
	// Orders must embed the cart read by the same transaction.
	found := false
	cl.ScanOpts(context.Background(), "orders", "order", nil, nil, readopt.Options{}, func(r core.Row) bool {
		found = true
		if string(r.Value[:13]) != `{"from-cart":` {
			t.Errorf("order row %q lacks cart payload", r.Value)
		}
		return false
	})
	if !found {
		t.Error("no order rows to inspect")
	}
}

func TestMixesOrderedByUpdateFraction(t *testing.T) {
	if !(Browsing.UpdateFrac < Shopping.UpdateFrac && Shopping.UpdateFrac < Ordering.UpdateFrac) {
		t.Error("mix fractions out of order")
	}
	if Browsing.UpdateFrac != 0.05 || Shopping.UpdateFrac != 0.20 || Ordering.UpdateFrac != 0.50 {
		t.Errorf("mix fractions = %v %v %v, want paper's 5/20/50%%",
			Browsing.UpdateFrac, Shopping.UpdateFrac, Ordering.UpdateFrac)
	}
}

func TestEntityGroupKeysAvoid2PC(t *testing.T) {
	// A customer's orders share the customer's key prefix, so cart and
	// order rows map to the same key range.
	ck := customerKey(7)
	ok := orderKey(7, 1)
	if string(ok[:len(ck)]) != string(ck) {
		t.Errorf("order key %q does not extend customer key %q", ok, ck)
	}
}

// The driver is written against logbase.Store, so it must also run on
// the embedded backend: declare the schema through CreateTables, load,
// and run a mix on a plain *logbase.DB.
func TestEmbeddedBackendRunsSameDriver(t *testing.T) {
	db, err := logbase.Open(t.TempDir(), logbase.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	if err := CreateTables(db); err != nil {
		t.Fatalf("CreateTables: %v", err)
	}
	if err := Load(db, 60, 30, 2); err != nil {
		t.Fatalf("Load: %v", err)
	}
	res, err := Run(db, Shopping, 60, 30, 100, 2, 1)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Txns != 100 {
		t.Errorf("completed %d txns, want 100", res.Txns)
	}
	orders := 0
	it := db.FullScan(context.Background(), "orders", "order")
	for it.Next() {
		orders++
	}
	if err := it.Close(); err != nil {
		t.Fatalf("FullScan: %v", err)
	}
	if orders == 0 {
		t.Error("shopping mix wrote no orders on the embedded backend")
	}
}
