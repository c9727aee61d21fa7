package logbase_test

// Model-based test for snapshot-consistent replica reads: a single
// writer churns puts/deletes on a replicated cluster while the
// replicas ship the log, and every round pins a snapshot and replays
// ALL pins so far — pinned scans and point reads against the live
// cluster (served by replicas once their watermark covers the pin)
// must match a naive in-memory oracle, through a mid-stream tablet
// split and a live migration. Delete semantics are the engine's: a
// delete drops the key's whole index history, so earlier pins stop
// seeing the key too.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	logbase "repro"
)

// replVer is one oracle version; a key's history is cleared by delete.
type replVer struct {
	ts  int64
	val []byte
}

// replOracle answers pinned reads the way the log-only engine does.
type replOracle map[string][]replVer

func (o replOracle) at(key string, ts int64) ([]byte, bool) {
	var best *replVer
	for i := range o[key] {
		v := &o[key][i]
		if v.ts <= ts && (best == nil || v.ts > best.ts) {
			best = v
		}
	}
	if best == nil {
		return nil, false
	}
	return best.val, true
}

func (o replOracle) scanAt(ts int64) []logbase.Row {
	keys := make([]string, 0, len(o))
	for k := range o {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []logbase.Row
	for _, k := range keys {
		if v, ok := o.at(k, ts); ok {
			out = append(out, logbase.Row{Key: []byte(k), Value: v})
		}
	}
	return out
}

func runReplicaModelScenario(t *testing.T, seed int64) bool {
	t.Helper()
	c, err := logbase.NewCluster(t.TempDir(), logbase.ClusterConfig{
		NumServers: 2,
		Replicas:   1,
		Tables:     []logbase.TableSpec{{Name: "t", Groups: []string{"g"}, Tablets: 2}},
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	cc := logbase.NewClusterClient(c)
	defer cc.Close()

	rng := rand.New(rand.NewSource(seed))
	oracle := replOracle{}
	var pins []int64
	const keySpace = 120
	for round := 0; round < 4; round++ {
		// Churn: single writer, so the coordinator's last timestamp right
		// after an operation IS that operation's commit timestamp.
		for i := 0; i < 200; i++ {
			k := fmt.Sprintf("row/%04d", rng.Intn(keySpace))
			if rng.Intn(12) == 0 {
				if err := cc.Delete(bg, "t", "g", []byte(k)); err != nil {
					t.Fatalf("Delete: %v", err)
				}
				delete(oracle, k) // a delete drops the whole history
			} else {
				v := fmt.Sprintf("val-%d-%d-%d", round, i, rng.Intn(50))
				if err := cc.Put(bg, "t", "g", []byte(k), []byte(v)); err != nil {
					t.Fatalf("Put: %v", err)
				}
				oracle[k] = append(oracle[k], replVer{ts: c.Coord().LastTimestamp(), val: []byte(v)})
			}
		}

		// Mid-stream topology churn the replicas must mirror: a split
		// after round 0, a migration after round 1.
		assign := map[string]string{}
		for tab, owner := range c.Assignments() {
			assign[tab] = owner
		}
		tabs := make([]string, 0, len(assign))
		for tab := range assign {
			tabs = append(tabs, tab)
		}
		sort.Strings(tabs)
		switch round {
		case 0:
			// Split the first tablet with enough keys (a thin one under a
			// skewed key draw refuses, which is fine).
			split := false
			for _, tab := range tabs {
				if _, _, err := c.SplitTablet(tab); err == nil {
					split = true
					break
				}
			}
			if !split {
				t.Fatalf("seed %d: no tablet of %v was splittable", seed, tabs)
			}
		case 1:
			tab := tabs[rng.Intn(len(tabs))]
			dest := "ts00"
			if assign[tab] == dest {
				dest = "ts01"
			}
			if err := c.MoveTablet(tab, dest); err != nil {
				t.Fatalf("MoveTablet(%s -> %s): %v", tab, dest, err)
			}
		}

		// Pin this round's frontier, wait for the replicas to cover it,
		// then replay EVERY pin so far: the engine's answers at old pins
		// must track the oracle, retroactive delete semantics included.
		pin := c.Coord().LastTimestamp()
		if err := c.WaitForReplicaTS(pin, 10*time.Second); err != nil {
			t.Fatalf("WaitForReplicaTS: %v", err)
		}
		pins = append(pins, pin)
		for _, p := range pins {
			want := oracle.scanAt(p)
			got := drain(t, cc.Scan(bg, "t", "g", nil, nil, logbase.WithSnapshot(p)))
			if len(got) != len(want) {
				t.Logf("seed %d round %d pin %d: scan %d rows, oracle %d", seed, round, p, len(got), len(want))
				return false
			}
			for j := range want {
				if !bytes.Equal(got[j].Key, want[j].Key) || !bytes.Equal(got[j].Value, want[j].Value) {
					t.Logf("seed %d round %d pin %d: row %d = %q=%q, oracle %q=%q",
						seed, round, p, j, got[j].Key, got[j].Value, want[j].Key, want[j].Value)
					return false
				}
			}
			for i := 0; i < 15; i++ {
				k := fmt.Sprintf("row/%04d", rng.Intn(keySpace))
				row, err := readAt(cc, "t", "g", []byte(k), p)
				if wantV, ok := oracle.at(k, p); ok {
					if err != nil || !bytes.Equal(row.Value, wantV) {
						t.Logf("seed %d pin %d: GetAt(%s) = %q, %v; oracle %q", seed, p, k, row.Value, err, wantV)
						return false
					}
				} else if !errors.Is(err, logbase.ErrNotFound) {
					t.Logf("seed %d pin %d: GetAt(%s) err = %v, oracle not-found", seed, p, k, err)
					return false
				}
			}
		}
	}

	// The routing must actually have used the standbys: pinned reads at
	// covered timestamps land on replicas, not the primaries.
	var served int64
	for _, stats := range cc.ReplicaStats() {
		for _, st := range stats {
			served += st.ReadsServed
		}
	}
	if served == 0 {
		t.Logf("seed %d: no replica served any read", seed)
		return false
	}
	return true
}

func TestReplicaSnapshotModelCluster(t *testing.T) {
	f := func(seed int64) bool { return runReplicaModelScenario(t, seed) }
	if err := quick.Check(f, &quick.Config{MaxCount: 3, Rand: rand.New(rand.NewSource(29))}); err != nil {
		t.Fatal(err)
	}
}
