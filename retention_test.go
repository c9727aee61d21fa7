package logbase_test

import (
	"fmt"
	"testing"
	"time"

	logbase "repro"
	"repro/internal/core"
	"repro/internal/readopt"
)

// TestRetentionReachesEveryReplica: SetRetention is written once, on the
// client, and must reach every primary AND every read replica on both
// backends — including a replica started after the call. A policy that
// stops at the primaries leaves the standbys hoarding history the table
// was told to drop.
func TestRetentionReachesEveryReplica(t *testing.T) {
	const keys = 20
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%03d", i)) }

	// A deployment under test: its store, its (primary, replica) pairs
	// once started, and the tablet a key lives in.
	type pair struct {
		primary *core.Server
		replica *logbase.Replica
	}
	cases := []struct {
		name string
		open func(t *testing.T) (st logbase.Store, pairs func() []pair, tabletOf func(k []byte) string)
	}{
		{"embedded", func(t *testing.T) (logbase.Store, func() []pair, func([]byte) string) {
			db := newEmbeddedStore(t).(*logbase.DB)
			if err := db.CreateTable("t", "g"); err != nil {
				t.Fatalf("CreateTable: %v", err)
			}
			if _, err := db.StartReplica(); err != nil { // one before SetRetention…
				t.Fatalf("StartReplica: %v", err)
			}
			pairs := func() []pair {
				if _, err := db.StartReplica(); err != nil { // …and one after it
					t.Fatalf("StartReplica: %v", err)
				}
				var out []pair
				for _, r := range db.Replicas() {
					out = append(out, pair{db.Server(), r})
				}
				return out
			}
			return db, pairs, func([]byte) string { return "t/0000" }
		}},
		{"cluster", func(t *testing.T) (logbase.Store, func() []pair, func([]byte) string) {
			c, err := logbase.NewCluster(t.TempDir(), logbase.ClusterConfig{
				NumServers: 2, Replicas: 1,
				Tables: []logbase.TableSpec{{Name: "t", Groups: []string{"g"}, Tablets: 2}},
			})
			if err != nil {
				t.Fatalf("NewCluster: %v", err)
			}
			cc := logbase.NewClusterClient(c)
			t.Cleanup(func() { cc.Close() })
			pairs := func() []pair {
				var out []pair
				for _, id := range c.LiveServers() {
					for _, r := range c.Replicas(id) {
						out = append(out, pair{c.Server(id), r})
					}
				}
				return out
			}
			cl := c.NewClient()
			return cc, pairs, func(k []byte) string {
				tab, err := cl.TabletFor("t", k)
				if err != nil {
					t.Fatalf("TabletFor: %v", err)
				}
				return tab
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, pairs, tabletOf := tc.open(t)
			if err := st.SetRetention("t", logbase.RetentionPolicy{KeepVersions: 1}); err != nil {
				t.Fatalf("SetRetention: %v", err)
			}
			for v := 0; v < 3; v++ {
				for i := 0; i < keys; i++ {
					if err := st.Put(bg, "t", "g", key(i), []byte(fmt.Sprintf("v%d", v))); err != nil {
						t.Fatalf("Put: %v", err)
					}
				}
			}
			ts := nowTS(t, st, "t", "g")
			ps := pairs()
			if len(ps) < 2 {
				t.Fatalf("want at least two replicas under test, got %d", len(ps))
			}
			for _, p := range ps {
				if err := p.replica.WaitForTS(ts, 10*time.Second); err != nil {
					t.Fatalf("replica %s: %v", p.replica.BaseID(), err)
				}
				if _, err := p.primary.Compact(); err != nil {
					t.Fatalf("compact primary %s: %v", p.primary.ID(), err)
				}
				if _, err := p.replica.Server().Compact(); err != nil {
					t.Fatalf("compact replica %s: %v", p.replica.BaseID(), err)
				}
			}
			// Every key, on every replica mirroring its tablet: exactly
			// the newest version survives.
			checked := 0
			for i := 0; i < keys; i++ {
				tab := tabletOf(key(i))
				for _, p := range ps {
					rows, err := p.replica.Server().ReadRow(tab, "g", key(i), readopt.Options{AllVersions: true, Snapshot: ts})
					if err != nil {
						continue // this replica mirrors another server's tablets
					}
					checked++
					if len(rows) != 1 || string(rows[0].Value) != "v2" {
						t.Fatalf("replica %s kept %d versions of %s (%v) after compaction, want just v2",
							p.replica.BaseID(), len(rows), key(i), rows)
					}
				}
			}
			if checked < keys {
				t.Fatalf("only %d (key, replica) reads were checked, want >= %d", checked, keys)
			}
		})
	}
}
