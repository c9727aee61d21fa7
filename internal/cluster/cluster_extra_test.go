package cluster

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/readopt"
)

func TestScanEarlyStopAcrossTablets(t *testing.T) {
	c := newTestCluster(t, 4)
	cl := c.NewClient()
	for b := 0; b < 256; b += 2 {
		cl.Put("users", "profile", []byte{byte(b)}, []byte("v"))
	}
	n := 0
	err := cl.ScanOpts(context.Background(), "users", "profile", nil, nil, readopt.Options{}, func(core.Row) bool {
		n++
		return n < 10
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if n != 10 {
		t.Errorf("early stop visited %d rows", n)
	}
}

func TestFailoverPreservesMultiversionHistory(t *testing.T) {
	c := newTestCluster(t, 3)
	cl := c.NewClient()
	key := []byte{0x42, 'h'}
	for i := 0; i < 5; i++ {
		cl.Put("users", "profile", key, []byte(fmt.Sprintf("v%d", i)))
	}
	row, err := cl.Get("users", "profile", key)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	beforeTS := row.TS

	// Find and kill the owner.
	router, _ := c.Router("users")
	tab, _ := router.Lookup(key)
	owner := c.Assignments()[tab.ID]
	if err := c.KillServer(owner); err != nil {
		t.Fatalf("KillServer: %v", err)
	}

	// Latest version survives with its timestamp.
	row, err = cl.Get("users", "profile", key)
	if err != nil || string(row.Value) != "v4" {
		t.Fatalf("after failover: %+v err=%v", row, err)
	}
	if row.TS != beforeTS {
		t.Errorf("version timestamp changed across failover: %d -> %d", beforeTS, row.TS)
	}
	// Historical versions survive too (RecoverTablets copies the full
	// history, not only the latest version).
	old, err := cl.Read("users", "profile", key, readopt.Options{Snapshot: beforeTS - 1})
	if err != nil || string(old[0].Value) != "v3" {
		t.Errorf("historical read after failover = %+v err=%v", old, err)
	}
}

func TestGroupsAndEpoch(t *testing.T) {
	c := newTestCluster(t, 2)
	groups := c.Groups("users")
	if len(groups) != 2 {
		t.Errorf("Groups = %v", groups)
	}
	e1 := c.Epoch()
	if err := c.CreateTable(TableSpec{Name: "t2", Groups: []string{"g"}}); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	if c.Epoch() == e1 {
		t.Error("epoch unchanged after table creation")
	}
}

func TestClientTabletForStable(t *testing.T) {
	c := newTestCluster(t, 3)
	cl := c.NewClient()
	key := []byte{0x33}
	tab1, err := cl.TabletFor("users", key)
	if err != nil {
		t.Fatalf("TabletFor: %v", err)
	}
	tab2, _ := cl.TabletFor("users", key)
	if tab1 != tab2 {
		t.Errorf("routing unstable: %s vs %s", tab1, tab2)
	}
}
