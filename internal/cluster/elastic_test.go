package cluster

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/readopt"
	"repro/internal/txn"
)

// hotKey renders keys that all land in the low half of the keyspace
// ("u" < 0x80), concentrating load on one tablet of a 2-way table.
func hotKey(i int) []byte { return []byte(fmt.Sprintf("user%06d", i)) }

func newElasticCluster(t *testing.T, servers, tablets int) *Cluster {
	t.Helper()
	c, err := New(t.TempDir(), Config{
		NumServers: servers,
		Tables: []TableSpec{
			{Name: "users", Groups: []string{"profile"}, Tablets: tablets},
		},
		Server: core.Config{SegmentSize: 1 << 20},
		DFS:    dfs.Config{BlockSize: 1 << 16},
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestSplitTabletOnline(t *testing.T) {
	c := newElasticCluster(t, 2, 2)
	cl := c.NewClient()
	const n = 500
	for i := 0; i < n; i++ {
		if err := cl.Put("users", "profile", hotKey(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	hot, err := cl.TabletFor("users", hotKey(0))
	if err != nil {
		t.Fatal(err)
	}
	epochBefore := c.Epoch()
	left, right, err := c.SplitTablet(hot)
	if err != nil {
		t.Fatalf("SplitTablet: %v", err)
	}
	if c.Epoch() <= epochBefore {
		t.Error("split did not bump the routing epoch")
	}
	asg, _ := c.RoutingSnapshot()
	if _, ok := asg[hot]; ok {
		t.Error("parent tablet still assigned after split")
	}
	if asg[left] == "" || asg[right] == "" {
		t.Fatalf("children unassigned: %v", asg)
	}
	// The STALE client (cached pre-split routing) converges on its own.
	for i := 0; i < n; i++ {
		row, err := cl.Get("users", "profile", hotKey(i))
		if err != nil || string(row.Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get %d after split = %+v err=%v", i, row, err)
		}
	}
	// Writes through a stale client land in the right child.
	if err := cl.Put("users", "profile", hotKey(n), []byte("post-split")); err != nil {
		t.Fatalf("stale Put after split: %v", err)
	}
	// Ordered scans see every key exactly once across the children.
	seen := map[string]int{}
	fresh := c.NewClient()
	if err := fresh.ScanOpts(context.Background(), "users", "profile", nil, nil, readopt.Options{}, func(r core.Row) bool {
		seen[string(r.Key)]++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != n+1 {
		t.Fatalf("scan saw %d keys, want %d", len(seen), n+1)
	}
	for k, cnt := range seen {
		if cnt != 1 {
			t.Fatalf("key %s scanned %d times", k, cnt)
		}
	}
}

func TestMoveTabletLiveMigration(t *testing.T) {
	c := newElasticCluster(t, 2, 2)
	cl := c.NewClient()
	for i := 0; i < 300; i++ {
		if err := cl.Put("users", "profile", hotKey(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	hot, err := cl.TabletFor("users", hotKey(0))
	if err != nil {
		t.Fatal(err)
	}
	asg, _ := c.RoutingSnapshot()
	src := asg[hot]
	var dest string
	for _, id := range c.LiveServers() {
		if id != src {
			dest = id
		}
	}
	if err := c.MoveTablet(hot, dest); err != nil {
		t.Fatalf("MoveTablet: %v", err)
	}
	asg, _ = c.RoutingSnapshot()
	if asg[hot] != dest {
		t.Fatalf("tablet %s assigned to %s, want %s", hot, asg[hot], dest)
	}
	if serves(c.Server(src), hot, "profile") {
		t.Errorf("source still serves %s after migration", hot)
	}
	// Stale client converges; data intact with exactly one version each.
	for i := 0; i < 300; i++ {
		vs, err := cl.Read("users", "profile", hotKey(i), readopt.Options{AllVersions: true})
		if err != nil {
			t.Fatalf("Versions %d after move: %v", i, err)
		}
		if len(vs) != 1 {
			t.Fatalf("key %d has %d versions after move (lost or duplicated)", i, len(vs))
		}
	}
}

// serves reports whether srv serves tablet tab: a read of group there
// does not fail with ErrUnknownTablet.
func serves(srv *core.Server, tab, group string) bool {
	_, err := srv.Get(tab, group, []byte("probe"))
	return !errors.Is(err, core.ErrUnknownTablet)
}

// TestConcurrentWritersDuringSplitAndMigration is the convergence test
// the issue asks for: writers hammer one key range while the tablet
// under them is split and then migrated; afterwards every acknowledged
// write must be present exactly once. Run under -race in CI.
func TestConcurrentWritersDuringSplitAndMigration(t *testing.T) {
	c := newElasticCluster(t, 3, 2)
	seedCl := c.NewClient()
	for i := 0; i < 200; i++ {
		if err := seedCl.Put("users", "profile", hotKey(i), []byte("seed")); err != nil {
			t.Fatal(err)
		}
	}
	hot, err := seedCl.TabletFor("users", hotKey(0))
	if err != nil {
		t.Fatal(err)
	}

	const writers = 4
	const perWriter = 300
	var next atomic.Int64
	next.Store(1000) // fresh key space per acknowledged write
	var acked sync.Map
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := c.NewClient()
			for i := 0; i < perWriter; i++ {
				k := next.Add(1)
				if err := cl.Put("users", "profile", hotKey(int(k)), []byte("w")); err != nil {
					errCh <- fmt.Errorf("put %d: %w", k, err)
					return
				}
				acked.Store(int(k), true)
			}
		}()
	}

	// Split the hot tablet mid-stream, then migrate one child.
	time.Sleep(2 * time.Millisecond)
	left, right, err := c.SplitTablet(hot)
	if err != nil {
		t.Fatalf("SplitTablet under load: %v", err)
	}
	asg, _ := c.RoutingSnapshot()
	owner := asg[right]
	var dest string
	for _, id := range c.LiveServers() {
		if id != owner {
			dest = id
		}
	}
	if err := c.MoveTablet(right, dest); err != nil {
		t.Fatalf("MoveTablet under load: %v", err)
	}
	_ = left
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Every acknowledged write present exactly once.
	check := c.NewClient()
	acked.Range(func(key, _ any) bool {
		k := key.(int)
		vs, err := check.Read("users", "profile", hotKey(k), readopt.Options{AllVersions: true})
		if err != nil {
			t.Errorf("key %d lost after split+migration: %v", k, err)
			return false
		}
		if len(vs) != 1 {
			t.Errorf("key %d has %d versions (duplicated)", k, len(vs))
			return false
		}
		return true
	})
	// And the seed rows survived both topology changes.
	for i := 0; i < 200; i++ {
		if _, err := check.Get("users", "profile", hotKey(i)); err != nil {
			t.Fatalf("seed key %d lost: %v", i, err)
		}
	}
}

// TestAssignmentsEpochSafeDuringFailover is the regression test for the
// locking satellite: Assignments/Epoch readers must never observe
// routing that points at a failover heir that has not finished
// recovering the dead server's log. The readers hammer the accessors
// while KillServer runs; whenever a snapshot shows the dead server
// fully replaced, the heirs must already serve the data.
func TestAssignmentsEpochSafeDuringFailover(t *testing.T) {
	c := newElasticCluster(t, 3, 3)
	cl := c.NewClient()
	keys := make([][]byte, 0, 256)
	for i := 0; i < 256; i++ {
		k := []byte{byte(i), 'k'}
		keys = append(keys, k)
		if err := cl.Put("users", "profile", k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	victim := c.LiveServers()[0]

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var violations atomic.Int64
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				asg, _ := c.RoutingSnapshot()
				moved := false
				for _, owner := range asg {
					if owner == victim {
						moved = false
						break
					}
					moved = true
				}
				if !moved {
					continue
				}
				// Snapshot shows the failover landed: every tablet's
				// owner must serve its data NOW.
				for tab, owner := range asg {
					srv := c.Server(owner)
					if srv == nil || !serves(srv, tab, "profile") {
						violations.Add(1)
						return
					}
				}
			}
		}()
	}
	if err := c.KillServer(victim); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d routing snapshots named heirs that were not serving yet", v)
	}
	// Data fully readable after failover through a stale client.
	for _, k := range keys {
		if _, err := cl.Get("users", "profile", k); err != nil {
			t.Fatalf("key %v lost in failover: %v", k, err)
		}
	}
}

// TestBalancerSplitsAndMovesHotTablet drives a skewed workload and
// ticks the balancer deterministically: it must split the hot tablet
// and migrate load until the hot range is served by more than one
// server.
func TestBalancerSplitsAndMovesHotTablet(t *testing.T) {
	c := newElasticCluster(t, 2, 2)
	b := c.NewBalancer(BalancerConfig{MinOps: 100})
	cl := c.NewClient()
	written := 0
	drive := func(n int) {
		for i := 0; i < n; i++ {
			if err := cl.Put("users", "profile", hotKey(written%2000), []byte("v")); err != nil {
				t.Fatal(err)
			}
			written++
		}
	}
	for round := 0; round < 12; round++ {
		drive(600)
		b.Tick()
	}
	st := b.Stats()
	if st.Splits < 1 {
		t.Fatalf("balancer never split the hot tablet: %+v", st)
	}
	if st.Moves < 1 {
		t.Fatalf("balancer never migrated a tablet: %+v", st)
	}
	// The hot key range is now served by more than one server.
	servers := map[string]bool{}
	asg, _ := c.RoutingSnapshot()
	router, err := c.Router("users")
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range router.Overlapping([]byte("user"), []byte("uses")) {
		servers[asg[tab.ID]] = true
	}
	if len(servers) < 2 {
		t.Fatalf("hot range still pinned to one server after balancing: %v", asg)
	}
	// All data still present through a stale client.
	maxKey := written
	if maxKey > 2000 {
		maxKey = 2000
	}
	for i := 0; i < maxKey; i++ {
		if _, err := cl.Get("users", "profile", hotKey(i)); err != nil {
			t.Fatalf("key %d lost after balancing: %v", i, err)
		}
	}
	if st.Errors > 0 {
		t.Logf("balancer recorded %d benign errors", st.Errors)
	}
}

// TestColdOwnerCacheSurvivesSplit pins the ServerFor classification: a
// client whose router cache predates a split (but whose owner cache is
// cold for the parent) must converge instead of failing with a plain
// "unassigned" error.
func TestColdOwnerCacheSurvivesSplit(t *testing.T) {
	c := newElasticCluster(t, 2, 2)
	seed := c.NewClient()
	for i := 0; i < 300; i++ {
		if err := seed.Put("users", "profile", hotKey(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the ROUTER cache only: route a key from the other tablet
	// (first byte >= 0x80) so the hot tablet's owner is never cached.
	cl := c.NewClient()
	if err := cl.Put("users", "profile", []byte{0xF0, 'x'}, []byte("v")); err != nil {
		t.Fatal(err)
	}
	hot, err := seed.TabletFor("users", hotKey(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.SplitTablet(hot); err != nil {
		t.Fatal(err)
	}
	// The stale-router/cold-owner client must retry through the split.
	if err := cl.Put("users", "profile", hotKey(5), []byte("post")); err != nil {
		t.Fatalf("cold-owner client did not converge after split: %v", err)
	}
	if _, err := cl.Get("users", "profile", hotKey(10)); err != nil {
		t.Fatalf("cold-owner Get after split: %v", err)
	}
}

// TestSecondaryIndexSurvivesSplitAndMove pins the re-registration of
// per-tablet secondary index slices across topology changes.
func TestSecondaryIndexSurvivesSplitAndMove(t *testing.T) {
	c := newElasticCluster(t, 2, 2)
	cl := c.NewClient()
	val := func(i int) []byte { return []byte(fmt.Sprintf("city=%c", 'a'+i%5)) }
	for i := 0; i < 200; i++ {
		if err := cl.Put("users", "profile", hotKey(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	extract := func(v []byte) []byte {
		if len(v) > 5 {
			return v[5:]
		}
		return nil
	}
	if err := c.RegisterSecondaryIndex("by-city", "users", "profile", extract); err != nil {
		t.Fatal(err)
	}
	wantRows := func(label string) {
		t.Helper()
		rows, err := cl.LookupSecondary("by-city", []byte("a"))
		if err != nil {
			t.Fatalf("%s: LookupSecondary: %v", label, err)
		}
		if len(rows) != 40 {
			t.Fatalf("%s: LookupSecondary returned %d rows, want 40", label, len(rows))
		}
	}
	wantRows("before")

	hot, err := cl.TabletFor("users", hotKey(0))
	if err != nil {
		t.Fatal(err)
	}
	_, right, err := c.SplitTablet(hot)
	if err != nil {
		t.Fatal(err)
	}
	wantRows("after split")

	asg, _ := c.RoutingSnapshot()
	var dest string
	for _, id := range c.LiveServers() {
		if id != asg[right] {
			dest = id
		}
	}
	if err := c.MoveTablet(right, dest); err != nil {
		t.Fatal(err)
	}
	wantRows("after move")
}

// TestMigrationRefusesLivePrepared2PC pins the cutover/2PC interlock:
// a tablet with a prepared-but-uncommitted cross-server transaction
// (validation write locks still held) must not migrate — its commit
// record would land past the replay bound and vanish. Once the locks
// are gone (orphaned prepare), migration proceeds.
func TestMigrationRefusesLivePrepared2PC(t *testing.T) {
	c := newElasticCluster(t, 2, 2)
	cl := c.NewClient()
	for i := 0; i < 150; i++ {
		if err := cl.Put("users", "profile", hotKey(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	hot, err := cl.TabletFor("users", hotKey(0))
	if err != nil {
		t.Fatal(err)
	}
	asg, _ := c.RoutingSnapshot()
	src := asg[hot]
	var dest string
	for _, id := range c.LiveServers() {
		if id != src {
			dest = id
		}
	}

	// Simulate a transaction caught between prepare and commit: the
	// prepared records are durable on the source and the validation
	// write lock is held.
	key := hotKey(3)
	writes := []core.TxnWrite{{Tablet: hot, Group: "profile", Key: key, Value: []byte("2pc")}}
	prepared, err := c.Server(src).PrepareTxn(999, 12345, writes)
	if err != nil {
		t.Fatalf("PrepareTxn: %v", err)
	}
	sess := c.Coord().NewSession()
	lk := txn.LockKey(hot, "profile", key)
	if err := sess.Lock(lk); err != nil {
		t.Fatal(err)
	}

	if err := c.MoveTablet(hot, dest); err == nil {
		t.Fatal("migration proceeded over a live prepared transaction")
	}
	// The cutover rollback must leave the tablet writable on the source.
	if err := cl.Put("users", "profile", hotKey(4), []byte("post-abort")); err != nil {
		t.Fatalf("tablet unusable after aborted migration: %v", err)
	}
	// The prepared transaction can still commit.
	if err := c.Server(src).CommitTxn(999, 12345, prepared); err != nil {
		t.Fatalf("CommitTxn after aborted migration: %v", err)
	}
	sess.Unlock(lk)

	// Now nothing is in flight: migration succeeds and the committed
	// write survives it.
	if err := c.MoveTablet(hot, dest); err != nil {
		t.Fatalf("MoveTablet after locks released: %v", err)
	}
	row, err := cl.Get("users", "profile", key)
	if err != nil || string(row.Value) != "2pc" {
		t.Fatalf("2PC write lost in migration: %+v err=%v", row, err)
	}
}

// TestTransactionsDuringBalancing runs cross-tablet read-modify-write
// transactions while the balancer reshapes the topology; every
// successfully committed increment must be durable and the counters
// consistent.
func TestTransactionsDuringBalancing(t *testing.T) {
	c := newElasticCluster(t, 2, 2)
	cl := c.NewClient()
	for i := 0; i < 400; i++ {
		if err := cl.Put("users", "profile", hotKey(i), []byte("0")); err != nil {
			t.Fatal(err)
		}
	}
	b := c.NewBalancer(BalancerConfig{MinOps: 64, Cooldown: 1})

	commits := 0
	for round := 0; round < 8; round++ {
		for i := 0; i < 100; i++ {
			k := hotKey(i % 50)
			err := c.TxnManager().RunTxn(20, func(tx *txn.Txn) error {
				tab, err := cl.TabletFor("users", k)
				if err != nil {
					return err
				}
				cur, err := tx.Get(tab, "profile", k)
				if err != nil {
					return err
				}
				n, _ := strconv.Atoi(string(cur))
				return tx.Put(tab, "profile", k, []byte(strconv.Itoa(n+1)))
			})
			if err != nil {
				t.Fatalf("round %d txn %d: %v", round, i, err)
			}
			commits++
		}
		b.Tick()
	}
	// 8 rounds x 100 txns over 50 keys -> each key incremented 16 times.
	for i := 0; i < 50; i++ {
		row, err := cl.Get("users", "profile", hotKey(i))
		if err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
		if string(row.Value) != "16" {
			t.Fatalf("key %d = %s, want 16 (lost transactional writes)", i, row.Value)
		}
	}
	if st := b.Stats(); st.Splits == 0 {
		t.Logf("balancer stats: %+v (no split this run)", st)
	}
}

// TestIdleBalancerLeavesAdoptedTabletAlone: a tablet adopted in a
// failover or moved by a migration arrives with its history replayed
// into its new server, and that history is not load. A default
// balancer ticking over the idle cluster afterwards leaves it alone.
func TestIdleBalancerLeavesAdoptedTabletAlone(t *testing.T) {
	for _, tc := range []struct {
		name    string
		handOff func(c *Cluster, hot, owner string) error
	}{
		{"failover", func(c *Cluster, _, owner string) error { return c.KillServer(owner) }},
		{"move", func(c *Cluster, hot, owner string) error {
			for _, id := range c.LiveServers() {
				if id != owner {
					return c.MoveTablet(hot, id)
				}
			}
			return fmt.Errorf("no server besides %s", owner)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newElasticCluster(t, 3, 3)
			cl := c.NewClient()
			const n = 2000
			for i := 0; i < n; i++ {
				if err := cl.Put("users", "profile", hotKey(i), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			// The writes age out of every load window without an action.
			settle := c.NewBalancer(BalancerConfig{MinOps: 1 << 40})
			for range 10 {
				settle.Tick()
			}
			hot, err := cl.TabletFor("users", hotKey(0))
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.handOff(c, hot, c.Assignments()[hot]); err != nil {
				t.Fatal(err)
			}
			b := c.NewBalancer(BalancerConfig{})
			for range 10 {
				b.Tick()
			}
			if st := b.Stats(); st.Splits != 0 || st.Moves != 0 {
				t.Fatalf("balancer acted on an idle cluster after the %s: %+v", tc.name, st)
			}
			for i := 0; i < n; i += 97 {
				if _, err := cl.Get("users", "profile", hotKey(i)); err != nil {
					t.Fatalf("key %d lost in the %s: %v", i, tc.name, err)
				}
			}
		})
	}
}
