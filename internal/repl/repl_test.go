package repl

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/fault"
	"repro/internal/partition"
	"repro/internal/readopt"
)

const (
	testTablet = "t/0000"
	testGroup  = "g"
)

// harness is one primary plus a logical-timestamp authority (the unit
// tests run without a coordination service; a counter is the same
// contract: monotone, sampled-before-tip).
type harness struct {
	fs      *dfs.DFS
	primary *core.Server
	ts      atomic.Int64
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	fs, err := dfs.New(t.TempDir(), dfs.Config{NumDataNodes: 1, BlockSize: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewServer(fs, "ts0", core.Config{SegmentSize: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	p.AddTablet(partition.Tablet{ID: testTablet, Table: "t"}, []string{testGroup})
	t.Cleanup(func() { p.Close() })
	return &harness{fs: fs, primary: p}
}

func (h *harness) put(t *testing.T, i int, val string) int64 {
	t.Helper()
	ts := h.ts.Add(1)
	k := []byte(fmt.Sprintf("k%05d", i))
	if err := h.primary.Write(testTablet, testGroup, k, ts, []byte(val)); err != nil {
		t.Fatal(err)
	}
	return ts
}

func (h *harness) newReplica(t *testing.T, buffer int) *Replica {
	t.Helper()
	r, err := New(h.fs, h.primary, "ts0.r0", Config{
		LastTS: h.ts.Load,
		Server: core.Config{SegmentSize: 1 << 18},
		Buffer: buffer,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.AddTablet(partition.Tablet{ID: testTablet, Table: "t"}, []string{testGroup})
	return r
}

func wantRow(t *testing.T, srv *core.Server, i int, ts int64, val string) {
	t.Helper()
	k := []byte(fmt.Sprintf("k%05d", i))
	row, err := srv.GetAt(testTablet, testGroup, k, ts)
	if err != nil {
		t.Fatalf("GetAt(%s@%d): %v", k, ts, err)
	}
	if string(row.Value) != val {
		t.Fatalf("GetAt(%s@%d) = %q, want %q", k, ts, row.Value, val)
	}
}

// TestReplSlowConsumerResume floods a replica whose live tail holds a
// single event: overflows resume from the exact cursor, so the replica
// still converges to the complete state.
func TestReplSlowConsumerResume(t *testing.T) {
	h := newHarness(t)
	rep := h.newReplica(t, 1)
	defer rep.Close()
	if err := rep.Start(); err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		h.put(t, i, fmt.Sprintf("v%d", i))
	}
	ts := h.ts.Load()
	if err := rep.WaitForTS(ts, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, n / 2, n - 1} {
		wantRow(t, rep.Server(), i, ts, fmt.Sprintf("v%d", i))
	}
	st := rep.Stats()
	if st.Applied != n {
		t.Fatalf("applied %d records, want %d (a resume gap dropped records?)", st.Applied, n)
	}
	if st.Generation != 0 {
		t.Fatalf("generation %d, want 0 (overflow must resume, not re-bootstrap)", st.Generation)
	}
}

// TestReplRestartResumesFromDurableCursor closes a caught-up replica,
// keeps writing, and reopens it under the same base id: it recovers its
// own log and resumes shipping from the durable cursor — same
// generation, no re-bootstrap, complete state.
func TestReplRestartResumesFromDurableCursor(t *testing.T) {
	h := newHarness(t)
	rep := h.newReplica(t, 0)
	if err := rep.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 150; i++ {
		h.put(t, i, fmt.Sprintf("v%d", i))
	}
	mid := h.ts.Load()
	if err := rep.WaitForTS(mid, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	cursor := rep.AppliedLSN()
	rep.Close()
	if cursor == 0 {
		t.Fatal("caught-up replica closed with zero cursor")
	}

	// The primary keeps committing while the replica is down.
	for i := 150; i < 300; i++ {
		h.put(t, i, fmt.Sprintf("v%d", i))
	}

	rep2 := h.newReplica(t, 0)
	defer rep2.Close()
	if got := rep2.AppliedLSN(); got != cursor {
		t.Fatalf("reopened cursor = %d, want durable %d", got, cursor)
	}
	if err := rep2.Start(); err != nil {
		t.Fatal(err)
	}
	ts := h.ts.Load()
	if err := rep2.WaitForTS(ts, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	st := rep2.Stats()
	if st.Generation != 0 {
		t.Fatalf("generation %d after clean restart, want 0", st.Generation)
	}
	// Rows from before the outage (recovered from the replica's own log)
	// and from during it (shipped on resume) are both present.
	wantRow(t, rep2.Server(), 0, ts, "v0")
	wantRow(t, rep2.Server(), 149, ts, "v149")
	wantRow(t, rep2.Server(), 150, ts, "v150")
	wantRow(t, rep2.Server(), 299, ts, "v299")
	// And the pre-outage snapshot still answers at its own timestamp.
	wantRow(t, rep2.Server(), 0, mid, "v0")
}

// TestReplTruncationRebootstrap compacts the primary past a downed
// replica's cursor: resuming is impossible, so the replica re-bootstraps
// into a fresh generation and full-replays the retained log.
func TestReplTruncationRebootstrap(t *testing.T) {
	h := newHarness(t)
	rep := h.newReplica(t, 0)
	if err := rep.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		h.put(t, i, fmt.Sprintf("v%d", i))
	}
	if err := rep.WaitForTS(h.ts.Load(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	rep.Close()

	// While the replica is down: more commits, then a whole-log
	// compaction — the prune horizon jumps past every assigned LSN,
	// including the replica's cursor.
	for i := 100; i < 200; i++ {
		h.put(t, i, fmt.Sprintf("v%d", i))
	}
	if _, err := h.primary.Compact(); err != nil {
		t.Fatal(err)
	}

	rep2 := h.newReplica(t, 0)
	defer rep2.Close()
	if err := rep2.Start(); err != nil {
		t.Fatal(err)
	}
	ts := h.ts.Load()
	if err := rep2.WaitForTS(ts, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	st := rep2.Stats()
	if st.Generation != 1 {
		t.Fatalf("generation %d after truncation, want 1 (re-bootstrap)", st.Generation)
	}
	if !strings.HasSuffix(st.ServerID, ".g1") {
		t.Fatalf("server id %q, want generation-bumped .g1 suffix", st.ServerID)
	}
	wantRow(t, rep2.Server(), 0, ts, "v0")
	wantRow(t, rep2.Server(), 199, ts, "v199")
}

// TestReplForeignReplicaFailsOnTruncation: a replica carrying
// peer-recovered history (adoption/migration) cannot re-bootstrap from
// the primary's log alone — truncation must fail it, not silently serve
// incomplete state.
func TestReplForeignReplicaFailsOnTruncation(t *testing.T) {
	h := newHarness(t)
	rep := h.newReplica(t, 0)
	if err := rep.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		h.put(t, i, fmt.Sprintf("v%d", i))
	}
	if err := rep.WaitForTS(h.ts.Load(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	rep.Close()

	h.put(t, 50, "v50")
	if _, err := h.primary.Compact(); err != nil {
		t.Fatal(err)
	}

	rep2 := h.newReplica(t, 0)
	defer rep2.Close()
	rep2.MarkForeign()
	if err := rep2.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for rep2.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("foreign replica did not fail on truncation")
		}
		time.Sleep(time.Millisecond)
	}
	if err := rep2.Err(); !strings.Contains(err.Error(), "peer-recovered") {
		t.Fatalf("err = %v, want peer-recovered refusal", err)
	}
	if wm := rep2.WatermarkTS(); wm != 0 {
		t.Fatalf("failed foreign replica advertises watermark %d, want 0", wm)
	}
}

// TestReplShippingModel is the shipping-layer model check: random
// puts/deletes churn the primary while the replica applies, with a
// mid-stream tablet split (mirrored) and a mid-stream replica restart
// (resuming from the durable cursor). After every round the replica's
// pinned point reads must match a naive oracle at every pin taken so
// far — delete-drops-history semantics included.
func TestReplShippingModel(t *testing.T) {
	scenario := func(seed int64) bool {
		h := newHarness(t)
		rep := h.newReplica(t, 0)
		closed := false
		defer func() {
			if !closed {
				rep.Close()
			}
		}()
		if err := rep.Start(); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		type ver struct {
			ts  int64
			val string
		}
		oracle := map[int][]ver{}
		var pins []int64
		const keySpace = 80
		// tabFor routes a write to the primary's serving tablet: the
		// parent before the round-0 split, the covering child after.
		split := false
		tabFor := func(k int) string {
			if !split {
				return testTablet
			}
			if k < keySpace/2 {
				return "t/l"
			}
			return "t/r"
		}
		for round := 0; round < 4; round++ {
			for i := 0; i < 150; i++ {
				k := rng.Intn(keySpace)
				key := []byte(fmt.Sprintf("k%05d", k))
				if rng.Intn(12) == 0 {
					ts := h.ts.Add(1)
					if err := h.primary.Delete(tabFor(k), testGroup, key, ts); err != nil {
						t.Fatal(err)
					}
					delete(oracle, k) // a delete drops the key's whole history
				} else {
					v := fmt.Sprintf("val-%d-%d", round, i)
					ts := h.ts.Add(1)
					if err := h.primary.Write(tabFor(k), testGroup, key, ts, []byte(v)); err != nil {
						t.Fatal(err)
					}
					oracle[k] = append(oracle[k], ver{ts: ts, val: v})
				}
			}
			switch round {
			case 0:
				// Mirror a primary-side split mid-stream: records still in
				// flight under the parent id must keep resolving.
				mid := []byte(fmt.Sprintf("k%05d", keySpace/2))
				left := partition.Tablet{ID: "t/l", Table: "t", Range: partition.Range{End: mid}}
				right := partition.Tablet{ID: "t/r", Table: "t", Range: partition.Range{Start: mid}}
				if err := rep.SplitTablet(testTablet, left, right); err != nil {
					t.Fatal(err)
				}
				if err := h.primary.SplitTablet(testTablet, left, right); err != nil {
					t.Fatal(err)
				}
				split = true
			case 1:
				// Restart the replica mid-stream: resume from the durable
				// cursor, same generation.
				rep.Close()
				r2, err := New(h.fs, h.primary, "ts0.r0", Config{
					LastTS: h.ts.Load,
					Server: core.Config{SegmentSize: 1 << 18},
				})
				if err != nil {
					t.Fatal(err)
				}
				mid := []byte(fmt.Sprintf("k%05d", keySpace/2))
				r2.AddTablet(partition.Tablet{ID: "t/l", Table: "t", Range: partition.Range{End: mid}}, []string{testGroup})
				r2.AddTablet(partition.Tablet{ID: "t/r", Table: "t", Range: partition.Range{Start: mid}}, []string{testGroup})
				if err := r2.Start(); err != nil {
					t.Fatal(err)
				}
				rep = r2
			}
			pin := h.ts.Load()
			if err := rep.WaitForTS(pin, 10*time.Second); err != nil {
				t.Fatal(err)
			}
			pins = append(pins, pin)
			if g := rep.Stats().Generation; g != 0 {
				t.Fatalf("seed %d round %d: generation %d, want 0 (no truncation happened)", seed, round, g)
			}
			for _, p := range pins {
				for i := 0; i < 25; i++ {
					k := rng.Intn(keySpace)
					key := []byte(fmt.Sprintf("k%05d", k))
					// Every pin check runs post-split: address by child range.
					tab := "t/l"
					if string(key) >= fmt.Sprintf("k%05d", keySpace/2) {
						tab = "t/r"
					}
					row, err := rep.Server().GetAt(tab, testGroup, key, p)
					var want string
					found := false
					for _, v := range oracle[k] {
						if v.ts <= p {
							want, found = v.val, true
						}
					}
					if found {
						if err != nil || string(row.Value) != want {
							t.Logf("seed %d pin %d key %s: got %q, %v; oracle %q", seed, p, key, row.Value, err, want)
							return false
						}
					} else if err == nil {
						t.Logf("seed %d pin %d key %s: got %q, oracle not-found", seed, p, key, row.Value)
						return false
					}
				}
			}
		}
		rep.Close()
		closed = true
		return true
	}
	if err := quick.Check(scenario, &quick.Config{MaxCount: 3, Rand: rand.New(rand.NewSource(31))}); err != nil {
		t.Fatal(err)
	}
}

// TestReplCrashReplayIdempotent is the cursor-staleness half of crash
// safety: the durable cursor lands at most every cursorFlushEvery
// applies, so a replica that dies between apply and flush re-applies
// up to cursorFlushEvery-1 already-applied records on restart. The
// replay must be invisible: ApplyReplicated installs each (key, ts)
// version at most once (the index's LSN-gated overwrite), values stay
// correct, the watermark never moves backwards, and no truncation
// re-bootstrap (generation bump) is triggered.
func TestReplCrashReplayIdempotent(t *testing.T) {
	h := newHarness(t)
	reg := fault.New(0xbad5eed)
	rep, err := New(h.fs, h.primary, "ts0.r0", Config{
		LastTS: h.ts.Load,
		Server: core.Config{SegmentSize: 1 << 18, Faults: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.AddTablet(partition.Tablet{ID: testTablet, Table: "t"}, []string{testGroup})
	if err := rep.Start(); err != nil {
		t.Fatal(err)
	}

	// Phase 1: 300 rows, shipped and durably checkpointed (the idle
	// tick flushes the cursor once the replica catches up).
	firstTS := make([]int64, 300)
	for i := range firstTS {
		firstTS[i] = h.put(t, i, fmt.Sprintf("v%d", i))
	}
	if err := rep.WaitForTS(h.ts.Load(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	var durable uint64
	for deadline := time.Now().Add(2 * time.Second); ; {
		if _, lsn, found, err := rep.loadCursor(); err == nil && found {
			durable = lsn
		}
		if durable == rep.AppliedLSN() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cursor never flushed: durable=%d applied=%d", durable, rep.AppliedLSN())
		}
		time.Sleep(time.Millisecond)
	}

	// Phase 2: suppress every further cursor flush (including the one
	// in Close), overwrite 200 existing keys, then "crash". Disk keeps
	// the applied records; the cursor stays 200 records stale.
	reg.Arm("crash.repl.pre-cursor-flush", fault.Policy{})
	secondTS := make([]int64, 200)
	for i := range secondTS {
		secondTS[i] = h.put(t, i, fmt.Sprintf("u%d", i))
	}
	if err := rep.WaitForTS(h.ts.Load(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	crashApplied := rep.AppliedLSN()
	wmBefore := rep.WatermarkTS()
	if crashApplied <= durable {
		t.Fatalf("no replay window: applied %d <= durable cursor %d", crashApplied, durable)
	}
	rep.Close()
	if _, lsn, _, err := rep.loadCursor(); err != nil || lsn != durable {
		t.Fatalf("cursor moved despite armed crash point: lsn=%d err=%v, want %d", lsn, err, durable)
	}

	// Restart as a fresh process: clean fault registry, stale cursor.
	rep2, err := New(h.fs, h.primary, "ts0.r0", Config{
		LastTS: h.ts.Load,
		Server: core.Config{SegmentSize: 1 << 18},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep2.AppliedLSN(); got != durable {
		t.Fatalf("reopened replica resumes at LSN %d, want stale durable cursor %d", got, durable)
	}
	rep2.AddTablet(partition.Tablet{ID: testTablet, Table: "t"}, []string{testGroup})
	if err := rep2.Start(); err != nil {
		t.Fatal(err)
	}
	defer rep2.Close()

	// Catch up while checking the watermark never moves backwards.
	target := h.ts.Load()
	prev := int64(-1)
	for deadline := time.Now().Add(5 * time.Second); ; {
		w := rep2.WatermarkTS()
		if w < prev {
			t.Fatalf("watermark moved backwards during replay: %d -> %d", prev, w)
		}
		prev = w
		if w >= target {
			break
		}
		if err := rep2.Err(); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at watermark %d, want %d", w, target)
		}
		time.Sleep(200 * time.Microsecond)
	}
	if wm := rep2.WatermarkTS(); wm < wmBefore {
		t.Fatalf("post-restart watermark %d below pre-crash %d", wm, wmBefore)
	}
	if gen := rep2.Stats().Generation; gen != 0 {
		t.Fatalf("replay triggered a re-bootstrap: generation = %d, want 0", gen)
	}

	// Every key must hold exactly the versions the primary holds — the
	// replayed suffix must not have installed duplicates.
	for i := 0; i < 300; i++ {
		key := []byte(fmt.Sprintf("k%05d", i))
		got, err := rep2.Server().ReadRow(testTablet, testGroup, key, readopt.Options{AllVersions: true})
		if err != nil {
			t.Fatal(err)
		}
		want, err := h.primary.ReadRow(testTablet, testGroup, key, readopt.Options{AllVersions: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("key %s: %d versions on replica, %d on primary", key, len(got), len(want))
		}
		wantN := 1
		if i < 200 {
			wantN = 2
		}
		if len(got) != wantN {
			t.Fatalf("key %s: %d versions, want %d (duplicate from replay?)", key, len(got), wantN)
		}
		for j := range got {
			if got[j].TS != want[j].TS || string(got[j].Value) != string(want[j].Value) {
				t.Fatalf("key %s version %d: replica (ts=%d, %q) != primary (ts=%d, %q)",
					key, j, got[j].TS, got[j].Value, want[j].TS, want[j].Value)
			}
		}
		latest := fmt.Sprintf("v%d", i)
		if i < 200 {
			latest = fmt.Sprintf("u%d", i)
		}
		wantRow(t, rep2.Server(), i, h.ts.Load(), latest)
	}
}
