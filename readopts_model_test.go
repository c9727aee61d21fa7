package logbase_test

// Model-based tests for the push-down read API: a naive in-memory
// model (map of key -> version history) is loaded side by side with the
// real store, then randomly composed option sets (reverse / limit /
// snapshot / prefix / time range / filters) are executed against both and compared
// row for row — driven by testing/quick on the embedded AND cluster
// backends. A separate test keeps consuming a cluster scan while a
// tablet splits and migrates mid-flight, asserting the stale-routing
// resume converges with no lost or duplicated rows.

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	logbase "repro"
)

// modelVersion is one committed version in the naive model.
type modelVersion struct {
	ts  int64
	val []byte
}

// scanModel is the oracle: per-key version history, timestamps learned
// back from the engine (Versions), so the model never guesses the
// timestamp authority's behaviour.
type scanModel map[string][]modelVersion

// buildModel loads nKeys keys (some multi-version, some deleted) into
// st and mirrors them into the model.
func buildModel(t *testing.T, st logbase.Store, rng *rand.Rand, nKeys int) scanModel {
	t.Helper()
	if err := st.CreateTable("t", "g"); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("row/%04d/%02d", rng.Intn(nKeys), rng.Intn(100))
	}
	deleted := map[string]bool{}
	for i := 0; i < nKeys*3; i++ {
		k := keys[rng.Intn(len(keys))]
		switch rng.Intn(10) {
		case 0:
			if err := st.Delete(bg, "t", "g", []byte(k)); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			deleted[k] = true
		default:
			v := fmt.Sprintf("val-%d-%d", i, rng.Intn(50))
			if err := st.Put(bg, "t", "g", []byte(k), []byte(v)); err != nil {
				t.Fatalf("Put: %v", err)
			}
			deleted[k] = false
		}
	}
	// Learn the surviving histories back from the store; a delete drops
	// every prior version from the index, so deleted keys are absent.
	m := scanModel{}
	seen := map[string]bool{}
	for _, k := range keys {
		if seen[k] || deleted[k] {
			seen[k] = true
			continue
		}
		seen[k] = true
		vs, err := st.Read(bg, "t", "g", []byte(k), logbase.WithAllVersions())
		if err != nil {
			t.Fatalf("Versions(%q): %v", k, err)
		}
		for _, r := range vs {
			m[k] = append(m[k], modelVersion{ts: r.TS, val: append([]byte(nil), r.Value...)})
		}
	}
	return m
}

// tsBounds returns the smallest and largest committed timestamps.
func (m scanModel) tsBounds() (lo, hi int64) {
	for _, vs := range m {
		for _, v := range vs {
			if lo == 0 || v.ts < lo {
				lo = v.ts
			}
			if v.ts > hi {
				hi = v.ts
			}
		}
	}
	return lo, hi
}

// expect computes the oracle row set for a scan of [start, end) with
// the given options (snap 0 = latest).
func (m scanModel) expect(start, end []byte, ro modelOpts) []logbase.Row {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []logbase.Row
	for _, k := range keys {
		kb := []byte(k)
		if len(start) > 0 && bytes.Compare(kb, start) < 0 {
			continue
		}
		if end != nil && bytes.Compare(kb, end) >= 0 {
			continue
		}
		if len(ro.prefix) > 0 && !bytes.HasPrefix(kb, ro.prefix) {
			continue
		}
		if ro.keyContains != nil && !bytes.Contains(kb, ro.keyContains) {
			continue
		}
		if ro.keyRange != nil && !inRange(kb, ro.keyRange) {
			continue
		}
		// Visible version at the snapshot: greatest ts <= snap.
		var vis *modelVersion
		for i := range m[k] {
			v := &m[k][i]
			if (ro.snap == 0 || v.ts <= ro.snap) && (vis == nil || v.ts > vis.ts) {
				vis = v
			}
		}
		// The time range filters the visible version; it never reaches
		// past it to an older one.
		if vis == nil || (ro.minTS != 0 && vis.ts < ro.minTS) || (ro.maxTS != 0 && vis.ts > ro.maxTS) {
			continue
		}
		if ro.valContains != nil && !bytes.Contains(vis.val, ro.valContains) {
			continue
		}
		if ro.valRange != nil && !inRange(vis.val, ro.valRange) {
			continue
		}
		out = append(out, logbase.Row{Key: kb, TS: vis.ts, Value: vis.val})
	}
	if ro.reverse {
		for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
	}
	if ro.limit > 0 && len(out) > ro.limit {
		out = out[:ro.limit]
	}
	return out
}

// inRange is MatchRange's rule: lo <= b < hi, a nil bound open.
func inRange(b []byte, r *[2][]byte) bool {
	return bytes.Compare(b, r[0]) >= 0 && (r[1] == nil || bytes.Compare(b, r[1]) < 0)
}

// modelOpts is one randomly drawn option combination. A key (or value)
// filter is a contains or a range predicate, never both: the option
// holds one predicate.
type modelOpts struct {
	limit        int
	reverse      bool
	snap         int64
	minTS, maxTS int64
	prefix       []byte
	keyContains  []byte
	keyRange     *[2][]byte
	valContains  []byte
	valRange     *[2][]byte
	batch        int
}

func (ro modelOpts) options() []logbase.ReadOption {
	var opts []logbase.ReadOption
	if ro.limit > 0 {
		opts = append(opts, logbase.WithLimit(ro.limit))
	}
	if ro.reverse {
		opts = append(opts, logbase.WithReverse())
	}
	if ro.snap > 0 {
		opts = append(opts, logbase.WithSnapshot(ro.snap))
	}
	if len(ro.prefix) > 0 {
		opts = append(opts, logbase.WithPrefix(ro.prefix))
	}
	if ro.minTS != 0 || ro.maxTS != 0 {
		opts = append(opts, logbase.WithTimeRange(ro.minTS, ro.maxTS))
	}
	if ro.keyContains != nil {
		opts = append(opts, logbase.WithKeyFilter(logbase.MatchContains(ro.keyContains)))
	}
	if ro.keyRange != nil {
		opts = append(opts, logbase.WithKeyFilter(logbase.MatchRange(ro.keyRange[0], ro.keyRange[1])))
	}
	if ro.valContains != nil {
		opts = append(opts, logbase.WithValueFilter(logbase.MatchContains(ro.valContains)))
	}
	if ro.valRange != nil {
		opts = append(opts, logbase.WithValueFilter(logbase.MatchRange(ro.valRange[0], ro.valRange[1])))
	}
	if ro.batch > 0 {
		opts = append(opts, logbase.WithBatchSize(ro.batch))
	}
	return opts
}

func (ro modelOpts) String() string {
	return fmt.Sprintf("limit=%d reverse=%v snap=%d time=[%d,%d] prefix=%q keyContains=%q keyRange=%q valContains=%q valRange=%q batch=%d",
		ro.limit, ro.reverse, ro.snap, ro.minTS, ro.maxTS, ro.prefix, ro.keyContains, ro.keyRange, ro.valContains, ro.valRange, ro.batch)
}

// drawOpts samples a random option combination biased toward
// interesting interactions.
func drawOpts(rng *rand.Rand, loTS, hiTS int64) modelOpts {
	var ro modelOpts
	if rng.Intn(2) == 0 {
		ro.limit = 1 + rng.Intn(40)
	}
	ro.reverse = rng.Intn(2) == 0
	if rng.Intn(2) == 0 && hiTS > loTS {
		ro.snap = loTS + rng.Int63n(hiTS-loTS+1)
	}
	if rng.Intn(3) == 0 {
		ro.prefix = []byte(fmt.Sprintf("row/%d", rng.Intn(10)))
	}
	if rng.Intn(3) == 0 && hiTS > loTS {
		// Either bound may be open.
		a, b := loTS+rng.Int63n(hiTS-loTS+1), loTS+rng.Int63n(hiTS-loTS+1)
		if rng.Intn(4) > 0 {
			ro.minTS = min(a, b)
		}
		if rng.Intn(4) > 0 {
			ro.maxTS = max(a, b)
		}
	}
	switch rng.Intn(6) {
	case 0, 1:
		ro.keyContains = []byte(fmt.Sprint(rng.Intn(10)))
	case 2:
		ro.keyRange = drawRange(rng, "row/%04d", 200)
	}
	switch rng.Intn(6) {
	case 0, 1:
		ro.valContains = []byte(fmt.Sprint(rng.Intn(10)))
	case 2:
		ro.valRange = drawRange(rng, "val-%d", 600)
	}
	if rng.Intn(3) == 0 {
		ro.batch = 1 + rng.Intn(64)
	}
	return ro
}

// drawRange draws a MatchRange [lo, hi) over strings formatted like
// format from [0, n); either bound may be open.
func drawRange(rng *rand.Rand, format string, n int) *[2][]byte {
	a, b := rng.Intn(n), rng.Intn(n)
	r := [2][]byte{[]byte(fmt.Sprintf(format, min(a, b))), []byte(fmt.Sprintf(format, max(a, b)))}
	if rng.Intn(4) == 0 {
		r[0] = nil
	}
	if rng.Intn(4) == 0 {
		r[1] = nil
	}
	return &r
}

// runModelScenario loads one randomized store+model pair and checks
// many random scans against the oracle.
func runModelScenario(t *testing.T, st logbase.Store, seed int64, scans int) bool {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := buildModel(t, st, rng, 200)
	loTS, hiTS := m.tsBounds()
	for i := 0; i < scans; i++ {
		ro := drawOpts(rng, loTS, hiTS)
		var start, end []byte
		if rng.Intn(3) == 0 {
			start = []byte(fmt.Sprintf("row/%04d", rng.Intn(200)))
		}
		if rng.Intn(3) == 0 {
			end = []byte(fmt.Sprintf("row/%04d", rng.Intn(200)))
		}
		if start != nil && end != nil && bytes.Compare(start, end) > 0 {
			start, end = end, start
		}
		want := m.expect(start, end, ro)
		got := drain(t, st.Scan(bg, "t", "g", start, end, ro.options()...))
		if len(got) != len(want) {
			t.Logf("seed %d scan %d [%q,%q) %v: got %d rows, model %d", seed, i, start, end, ro, len(got), len(want))
			return false
		}
		for j := range want {
			if !bytes.Equal(got[j].Key, want[j].Key) || got[j].TS != want[j].TS || !bytes.Equal(got[j].Value, want[j].Value) {
				t.Logf("seed %d scan %d %v: row %d = %q@%d %q, model %q@%d %q",
					seed, i, ro, j, got[j].Key, got[j].TS, got[j].Value, want[j].Key, want[j].TS, want[j].Value)
				return false
			}
		}
	}
	return true
}

func TestScanModelEmbedded(t *testing.T) {
	f := func(seed int64) bool {
		return runModelScenario(t, newEmbeddedStore(t), seed, 60)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

func TestScanModelCluster(t *testing.T) {
	f := func(seed int64) bool {
		cc, _ := newClusterStore(t, 3, 5)
		return runModelScenario(t, cc, seed, 40)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Fatal(err)
	}
}

// TestScanConvergesAcrossSplitAndMove starts limited/reverse/plain
// scans, splits and migrates tablets while the iterator is mid-stream,
// and asserts the row set still matches the oracle captured before the
// churn — the coverage-tracked stale-routing resume at work.
func TestScanConvergesAcrossSplitAndMove(t *testing.T) {
	const n = 20_000
	cc, c := newClusterStore(t, 3, 4)
	loadRows(t, cc, "t", "g", n)

	oracleFwd := drain(t, cc.Scan(bg, "t", "g", nil, nil))
	if len(oracleFwd) != n {
		t.Fatalf("oracle scan saw %d rows, want %d", len(oracleFwd), n)
	}

	churn := func(t *testing.T) {
		t.Helper()
		// Split the tablet holding the middle of the loaded keyspace,
		// then move one child to another server.
		router, err := c.Router("t")
		if err != nil {
			t.Fatalf("Router: %v", err)
		}
		tab, ok := router.Lookup([]byte(fmt.Sprintf("k%08d", n/2)))
		if !ok {
			t.Fatal("no tablet owns the middle key")
		}
		victim := tab.ID
		left, right, err := c.SplitTablet(victim)
		if err != nil {
			t.Fatalf("SplitTablet(%s): %v", victim, err)
		}
		_ = left
		assign := c.Assignments()
		owner := assign[right]
		for _, id := range c.LiveServers() {
			if id != owner {
				if err := c.MoveTablet(right, id); err != nil {
					t.Fatalf("MoveTablet(%s -> %s): %v", right, id, err)
				}
				break
			}
		}
	}

	check := func(t *testing.T, reverse bool) {
		t.Helper()
		var opts []logbase.ReadOption
		want := append([]logbase.Row(nil), oracleFwd...)
		if reverse {
			opts = append(opts, logbase.WithReverse())
			for i, j := 0, len(want)-1; i < j; i, j = i+1, j-1 {
				want[i], want[j] = want[j], want[i]
			}
		}
		opts = append(opts, logbase.WithBatchSize(128))
		it := cc.Scan(bg, "t", "g", nil, nil, opts...)
		var got []logbase.Row
		for it.Next() {
			got = append(got, it.Row())
			if len(got) == 500 {
				churn(t) // topology changes while the scan is mid-stream
			}
		}
		if err := it.Close(); err != nil {
			t.Fatalf("scan across churn: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("scan across churn saw %d rows, want %d (lost or duplicated)", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i].Key, want[i].Key) || got[i].TS != want[i].TS {
				t.Fatalf("row %d = %q@%d, oracle %q@%d", i, got[i].Key, got[i].TS, want[i].Key, want[i].TS)
			}
		}
	}
	t.Run("forward", func(t *testing.T) { check(t, false) })
	t.Run("reverse", func(t *testing.T) { check(t, true) })
}
