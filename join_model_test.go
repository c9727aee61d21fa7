package logbase_test

// Model-based tests for the statement executor: randomized
// three-relation fixtures (lineitems -> customers, items; dangling
// references, overwrites, deletes, post-snapshot noise) and randomly
// drawn statements of zero, one or two joins are executed by the real
// engine — the greedy plan (a join-free statement's is the partial
// strategy) AND forced worst-case orders through ExecWith — and compared
// against a naive nested-loop oracle computed in plain Go over rows
// materialized with Store.Scan at the same pinned timestamp. Driven by
// testing/quick on the embedded AND cluster backends; a separate test
// executes a three-table join and a join-free aggregate while tablets
// split and migrate mid-flight and asserts the results still match the
// pre-churn oracle.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"
	"testing/quick"
	"time"

	logbase "repro"
)

// jmField is the oracle's own comma-separated field splitter —
// independent of the engine's Expr.Eval. ok=false when the field index
// is past the last separator (SQL-NULL semantics).
func jmField(b []byte, i int) ([]byte, bool) {
	start := 0
	for j := 0; j <= len(b); j++ {
		if j == len(b) || b[j] == ',' {
			if i == 0 {
				return b[start:j], true
			}
			i--
			start = j + 1
		}
	}
	return nil, false
}

var jmRegions = []string{"eu", "jp", "us", "za"}

// joinSpec is one randomly drawn statement, kept as plain data so the
// same spec builds the real Statement and drives the oracle.
type joinSpec struct {
	lo, hi       []byte // key range on lineitems (nil = open)
	baseContains []byte // FILTER VAL contains on lineitems
	custContains []byte // FILTER VAL contains on customers
	joinFree     bool   // lineitems only: the 0-join plan
	withItems    bool   // three-relation statement
	groupMode    int    // 0 none, 1 base-key prefix, 2 customer region (join-free: lineitem tag)
	prefix       int
	agg2         logbase.AggKind // second aggregate's kind
	ts           int64
}

func (sp joinSpec) String() string {
	return fmt.Sprintf("range=[%q,%q) base~%q cust~%q joinfree=%v items=%v group=%d/%d agg2=%v",
		sp.lo, sp.hi, sp.baseContains, sp.custContains, sp.joinFree, sp.withItems, sp.groupMode, sp.prefix, sp.agg2)
}

// statement builds the real composable statement for the spec.
func (sp joinSpec) statement() *logbase.Statement {
	stmt := logbase.Q("lineitems").Group("ref").Range(sp.lo, sp.hi)
	if sp.baseContains != nil {
		stmt.FilterValue(logbase.MatchContains(sp.baseContains))
	}
	if sp.joinFree {
		switch sp.groupMode {
		case 1:
			stmt.GroupBy(sp.prefix)
		case 2:
			stmt.GroupByExpr("lineitems", logbase.ValField(2), 0)
		}
		return stmt.Agg(logbase.Count).AggOf(sp.agg2, "lineitems", logbase.ValField(3)).At(sp.ts)
	}
	stmt.Join("customers", "info", logbase.On{Left: logbase.ValField(0), Right: logbase.KeyExpr()})
	if sp.custContains != nil {
		stmt.FilterValue(logbase.MatchContains(sp.custContains))
	}
	if sp.withItems {
		stmt.Join("items", "price", logbase.On{LeftTable: "lineitems", Left: logbase.ValField(1), Right: logbase.KeyExpr()})
	}
	switch sp.groupMode {
	case 1:
		stmt.GroupBy(sp.prefix)
	case 2:
		stmt.GroupByExpr("customers", logbase.ValField(0), 0)
	}
	stmt.Agg(logbase.Count)
	if sp.withItems {
		stmt.AggOf(sp.agg2, "items", logbase.ValExpr())
	} else {
		stmt.AggOf(sp.agg2, "customers", logbase.ValField(1))
	}
	return stmt.At(sp.ts)
}

// expect is the oracle: a naive nested-loop join over the materialized
// relation snapshots (a join-free spec is a client-side fold of the
// plain lineitem rows), with the spec's filters, grouping, and aggregate
// accumulation applied in plain Go. All numeric inputs are small
// integers, so float accumulation is exact and order-independent.
func (sp joinSpec) expect(line, cust, items []logbase.Row) logbase.QueryResult {
	res := logbase.QueryResult{TS: sp.ts}
	custByKey := map[string]logbase.Row{}
	for _, c := range cust {
		if sp.custContains != nil && !bytes.Contains(c.Value, sp.custContains) {
			continue
		}
		custByKey[string(c.Key)] = c
	}
	itemByKey := map[string]logbase.Row{}
	for _, it := range items {
		itemByKey[string(it.Key)] = it
	}
	groups := map[string]*logbase.GroupResult{}
	for _, li := range line {
		if sp.lo != nil && bytes.Compare(li.Key, sp.lo) < 0 {
			continue
		}
		if sp.hi != nil && bytes.Compare(li.Key, sp.hi) >= 0 {
			continue
		}
		if sp.baseContains != nil && !bytes.Contains(li.Value, sp.baseContains) {
			continue
		}
		var c, it logbase.Row
		if !sp.joinFree {
			cref, ok := jmField(li.Value, 0)
			if !ok {
				continue
			}
			if c, ok = custByKey[string(cref)]; !ok {
				continue
			}
		}
		if sp.withItems {
			iref, ok := jmField(li.Value, 1)
			if !ok {
				continue
			}
			if it, ok = itemByKey[string(iref)]; !ok {
				continue
			}
		}
		res.Rows++
		key := ""
		switch sp.groupMode {
		case 1:
			key = string(li.Key)
			if len(key) > sp.prefix {
				key = key[:sp.prefix]
			}
		case 2:
			from, field := c.Value, 0
			if sp.joinFree {
				from, field = li.Value, 2
			}
			if v, ok := jmField(from, field); ok {
				key = string(v)
			}
		}
		g := groups[key]
		if g == nil {
			g = &logbase.GroupResult{Key: key, Aggs: make([]logbase.AggState, 2)}
			groups[key] = g
		}
		g.Rows++
		g.Aggs[0].Add(0) // COUNT(*)
		proj, ok := it.Value, sp.withItems
		switch {
		case sp.joinFree:
			proj, ok = jmField(li.Value, 3)
		case !sp.withItems:
			proj, ok = jmField(c.Value, 1)
		}
		if ok {
			if f, err := strconv.ParseFloat(string(proj), 64); err == nil {
				g.Aggs[1].Add(f)
			}
		}
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		res.Groups = append(res.Groups, *groups[k])
	}
	return res
}

// loadJoinFixture loads the randomized three-table fixture (with
// overwrites, deletes, and dangling references), pins the statement
// timestamp, then keeps writing so the snapshot has something to
// ignore. It returns the pinned ts and the lineitem count.
func loadJoinFixture(t *testing.T, st logbase.Store, rng *rand.Rand) (int64, int) {
	t.Helper()
	for _, tb := range []struct{ name, group string }{
		{"lineitems", "ref"}, {"customers", "info"}, {"items", "price"},
	} {
		if err := st.CreateTable(tb.name, tb.group); err != nil {
			t.Fatalf("CreateTable(%s): %v", tb.name, err)
		}
	}
	put := func(table, group, key, val string) {
		t.Helper()
		if err := st.Put(bg, table, group, []byte(key), []byte(val)); err != nil {
			t.Fatalf("Put(%s/%s): %v", table, key, err)
		}
	}
	nCust := 6 + rng.Intn(18)
	for i := 0; i < nCust; i++ {
		k := fmt.Sprintf("c%03d", i)
		put("customers", "info", k, fmt.Sprintf("%s,%d", jmRegions[rng.Intn(len(jmRegions))], 1+rng.Intn(99)))
		if rng.Intn(4) == 0 { // overwrite: multi-version history
			put("customers", "info", k, fmt.Sprintf("%s,%d", jmRegions[rng.Intn(len(jmRegions))], 1+rng.Intn(99)))
		}
		if rng.Intn(8) == 0 { // delete: lineitems referencing it dangle
			if err := st.Delete(bg, "customers", "info", []byte(k)); err != nil {
				t.Fatalf("Delete: %v", err)
			}
		}
	}
	nItems := 3 + rng.Intn(8)
	for i := 0; i < nItems; i++ {
		k := fmt.Sprintf("i%02d", i)
		put("items", "price", k, fmt.Sprint(5*(1+rng.Intn(40))))
		if rng.Intn(3) == 0 {
			put("items", "price", k, fmt.Sprint(5*(1+rng.Intn(40))))
		}
	}
	nLine := 120 + rng.Intn(200)
	for i := 0; i < nLine; i++ {
		// References sometimes point past the loaded range — a dangling
		// ref the inner join must drop. The fourth field is the lineitem's
		// own quantity; every eighth row has none and every eleventh a
		// non-numeric one (both NULL to an aggregate).
		ref := fmt.Sprintf("c%03d,i%02d,t%d", rng.Intn(nCust+2), rng.Intn(nItems+1), rng.Intn(6))
		switch {
		case i%11 == 0:
			ref += ",n/a"
		case i%8 != 0:
			ref += fmt.Sprintf(",%d", 1+i*7%50)
		}
		put("lineitems", "ref", fmt.Sprintf("o%05d", i), ref)
	}
	ts := nowTS(t, st, "lineitems", "ref")
	// Post-snapshot noise every relation: invisible at ts.
	for i := 0; i < 30; i++ {
		put("lineitems", "ref", fmt.Sprintf("o%05d", rng.Intn(nLine+50)), "c999,i99,t9")
		put("customers", "info", fmt.Sprintf("c%03d", rng.Intn(nCust)), "xx,0")
		put("items", "price", fmt.Sprintf("i%02d", rng.Intn(nItems)), "0")
	}
	return ts, nLine
}

// snapshotRows materializes one relation for the oracle via the plain
// scan path at the pinned timestamp.
func snapshotRows(t *testing.T, st logbase.Store, table, group string, ts int64) []logbase.Row {
	t.Helper()
	return drain(t, st.Scan(bg, table, group, nil, nil, logbase.WithSnapshot(ts)))
}

// drawJoinSpec samples one statement biased toward interesting
// combinations.
func drawJoinSpec(rng *rand.Rand, ts int64, nLine int) joinSpec {
	sp := joinSpec{
		ts:        ts,
		withItems: rng.Intn(2) == 0,
		agg2:      []logbase.AggKind{logbase.Sum, logbase.Min, logbase.Max, logbase.Avg, logbase.Count}[rng.Intn(5)],
	}
	if rng.Intn(2) == 0 {
		lo := rng.Intn(nLine)
		sp.lo = []byte(fmt.Sprintf("o%05d", lo))
		sp.hi = []byte(fmt.Sprintf("o%05d", lo+1+rng.Intn(nLine-lo)))
	}
	if rng.Intn(3) == 0 {
		sp.baseContains = []byte(fmt.Sprintf("t%d", rng.Intn(6)))
	}
	if rng.Intn(3) == 0 {
		sp.custContains = []byte(jmRegions[rng.Intn(len(jmRegions))])
	}
	if rng.Intn(3) == 0 {
		sp.joinFree, sp.withItems, sp.custContains = true, false, nil
	}
	switch rng.Intn(3) {
	case 1:
		sp.groupMode, sp.prefix = 1, 1+rng.Intn(4)
	case 2:
		sp.groupMode = 2
	}
	return sp
}

// planForcer is the forced-plan entry point both backends share beside
// Store (it comes with the one client they embed).
type planForcer interface {
	ExecWith(ctx context.Context, stmt *logbase.Statement, opts logbase.ExecOptions) (logbase.QueryResult, error)
}

// checkJoinSpec executes the spec's statement through the greedy plan
// and two forced-order naive plans and compares all three against the
// oracle. For a join-free spec the greedy plan is the partial strategy
// and NoPushdown forces the row-fetch plan.
func checkJoinSpec(t *testing.T, st logbase.Store, rng *rand.Rand, sp joinSpec, oracle logbase.QueryResult) bool {
	t.Helper()
	got, err := st.Exec(bg, sp.statement())
	if err != nil {
		t.Logf("%v: Exec: %v", sp, err)
		return false
	}
	if !reflect.DeepEqual(got, oracle) {
		t.Logf("%v: greedy plan disagrees with oracle\n got  %+v\n want %+v", sp, got, oracle)
		return false
	}
	// Forced orders through the identical machinery: the reversed
	// declaration order (the worst case: dimensions first, possibly a
	// cartesian step) and one random permutation, with the broadcast
	// and push-down machinery randomly disabled.
	nRels := 2
	switch {
	case sp.joinFree:
		nRels = 1
	case sp.withItems:
		nRels = 3
	}
	reversed := make([]int, nRels)
	for i := range reversed {
		reversed[i] = nRels - 1 - i
	}
	for _, opts := range []logbase.ExecOptions{
		{Order: reversed, NoBroadcast: true, NoPushdown: true},
		{Order: rng.Perm(nRels), NoBroadcast: rng.Intn(2) == 0, NoPushdown: rng.Intn(2) == 0},
	} {
		naive, err := st.(planForcer).ExecWith(bg, sp.statement(), opts)
		if err != nil {
			t.Logf("%v: ExecWith(%+v): %v", sp, opts, err)
			return false
		}
		if !reflect.DeepEqual(naive, oracle) {
			t.Logf("%v: forced order %+v disagrees with oracle\n got  %+v\n want %+v", sp, opts, naive, oracle)
			return false
		}
	}
	return true
}

// runJoinModelScenario loads one randomized fixture and checks many
// random statements against the oracle.
func runJoinModelScenario(t *testing.T, st logbase.Store, seed int64, stmts int) bool {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ts, nLine := loadJoinFixture(t, st, rng)
	line := snapshotRows(t, st, "lineitems", "ref", ts)
	cust := snapshotRows(t, st, "customers", "info", ts)
	items := snapshotRows(t, st, "items", "price", ts)
	for i := 0; i < stmts; i++ {
		sp := drawJoinSpec(rng, ts, nLine)
		if !checkJoinSpec(t, st, rng, sp, sp.expect(line, cust, items)) {
			t.Logf("seed %d statement %d failed", seed, i)
			return false
		}
	}
	return true
}

func TestJoinModelEmbedded(t *testing.T) {
	f := func(seed int64) bool {
		return runJoinModelScenario(t, newEmbeddedStore(t), seed, 10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Fatal(err)
	}
}

func TestJoinModelCluster(t *testing.T) {
	f := func(seed int64) bool {
		c, err := logbase.NewCluster(t.TempDir(), logbase.ClusterConfig{NumServers: 3})
		if err != nil {
			t.Fatalf("NewCluster: %v", err)
		}
		cc := logbase.NewClusterClient(c)
		t.Cleanup(func() { cc.Close() })
		return runJoinModelScenario(t, cc, seed, 8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3, Rand: rand.New(rand.NewSource(19))}); err != nil {
		t.Fatal(err)
	}
}

// TestJoinConvergesAcrossSplitAndMove executes a three-table join
// statement and a join-free aggregate while the cluster splits the fact
// table's tablets and migrates the children between servers — the
// routed relation fetches and the per-server partial fan-out must both
// re-resolve routing and still produce exactly the pre-churn oracle
// (the snapshot timestamp is pinned, so the answer is unique).
func TestJoinConvergesAcrossSplitAndMove(t *testing.T) {
	c, err := logbase.NewCluster(t.TempDir(), logbase.ClusterConfig{NumServers: 3})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	cc := logbase.NewClusterClient(c)
	t.Cleanup(func() { cc.Close() })

	rng := rand.New(rand.NewSource(23))
	ts, nLine := loadJoinFixture(t, cc, rng)
	line := snapshotRows(t, cc, "lineitems", "ref", ts)
	cust := snapshotRows(t, cc, "customers", "info", ts)
	items := snapshotRows(t, cc, "items", "price", ts)

	specs := []joinSpec{
		{ts: ts, withItems: true, groupMode: 2, agg2: logbase.Sum},
		{ts: ts, joinFree: true, groupMode: 2, agg2: logbase.Sum},
	}
	oracles := make([]logbase.QueryResult, len(specs))
	for i, sp := range specs {
		if oracles[i] = sp.expect(line, cust, items); oracles[i].Rows == 0 {
			t.Fatalf("churn fixture: %v produced zero tuples; the test would assert nothing", sp)
		}
	}

	churn := func(t *testing.T, frac int) {
		t.Helper()
		router, err := c.Router("lineitems")
		if err != nil {
			t.Fatalf("Router: %v", err)
		}
		tab, ok := router.Lookup([]byte(fmt.Sprintf("o%05d", nLine*frac/4)))
		if !ok {
			t.Fatal("no tablet owns the churn key")
		}
		_, right, err := c.SplitTablet(tab.ID)
		if err != nil {
			t.Fatalf("SplitTablet(%s): %v", tab.ID, err)
		}
		owner := c.Assignments()[right]
		for _, id := range c.LiveServers() {
			if id != owner {
				if err := c.MoveTablet(right, id); err != nil {
					t.Fatalf("MoveTablet(%s -> %s): %v", right, id, err)
				}
				break
			}
		}
	}

	for round := 1; round <= 3; round++ {
		// Execute both statements, over and over, concurrently with one
		// split+migrate of the tablet in the middle of the scanned
		// keyspace.
		stop := make(chan struct{})
		done := make([]chan error, len(specs))
		for i, sp := range specs {
			done[i] = make(chan error, 1)
			go func() {
				for churned := false; !churned; {
					select {
					case <-stop:
						churned = true // one last execution against the new topology
					default:
					}
					res, err := cc.Exec(bg, sp.statement())
					if err != nil {
						done[i] <- fmt.Errorf("Exec(%v) across churn: %w", sp, err)
						return
					}
					if !reflect.DeepEqual(res, oracles[i]) {
						done[i] <- fmt.Errorf("%v across churn diverged\n got  %+v\n want %+v", sp, res, oracles[i])
						return
					}
				}
				done[i] <- nil
			}()
		}
		time.Sleep(time.Duration(round) * 500 * time.Microsecond)
		churn(t, round)
		close(stop)
		for i := range specs {
			if err := <-done[i]; err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
}
