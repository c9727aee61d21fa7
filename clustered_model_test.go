package logbase_test

// Model-based tests for the clustered scan fast path under background
// auto-compaction: interleaved writes and deletes, incremental
// compaction ticks (exactly what the AutoCompact background loop
// runs), and randomly composed forward/reverse/limit/snapshot scans —
// all compared row for row against the naive oracle, on the embedded
// AND cluster backends. This is the "scans stay correct while the log
// is continuously re-clustered underneath them" property the clustered
// read path rests on.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	logbase "repro"
)

// runCompactingModelScenario mutates, compacts, and scans in rounds:
// every round applies a batch of random puts/deletes, runs one
// incremental compaction tick, re-learns the touched keys' histories
// from the engine, and checks a batch of random scans against the
// oracle.
func runCompactingModelScenario(t *testing.T, st logbase.Store, tick func(t *testing.T), seed int64, rounds, scansPerRound int) bool {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	if err := st.CreateTable("t", "g"); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	m := scanModel{}
	const keySpace = 150
	for round := 0; round < rounds; round++ {
		touched := map[string]bool{}
		for i := 0; i < 250; i++ {
			k := fmt.Sprintf("row/%04d/%02d", rng.Intn(keySpace), rng.Intn(20))
			touched[k] = true
			if rng.Intn(10) == 0 {
				if err := st.Delete(bg, "t", "g", []byte(k)); err != nil {
					t.Fatalf("Delete: %v", err)
				}
			} else {
				v := fmt.Sprintf("val-%d-%d-%d", round, i, rng.Intn(50))
				if err := st.Put(bg, "t", "g", []byte(k), []byte(v)); err != nil {
					t.Fatalf("Put: %v", err)
				}
			}
		}
		tick(t)
		// Re-learn the touched keys' histories from the engine (a delete
		// drops every prior version from the index, so deleted keys come
		// back empty and leave the model).
		for k := range touched {
			vs, err := st.Read(bg, "t", "g", []byte(k), logbase.WithAllVersions())
			if err != nil {
				t.Fatalf("Versions(%q): %v", k, err)
			}
			delete(m, k)
			for _, r := range vs {
				m[k] = append(m[k], modelVersion{ts: r.TS, val: append([]byte(nil), r.Value...)})
			}
		}
		loTS, hiTS := m.tsBounds()
		for i := 0; i < scansPerRound; i++ {
			ro := drawOpts(rng, loTS, hiTS)
			var start, end []byte
			if rng.Intn(3) == 0 {
				start = []byte(fmt.Sprintf("row/%04d", rng.Intn(keySpace)))
			}
			if rng.Intn(3) == 0 {
				end = []byte(fmt.Sprintf("row/%04d", rng.Intn(keySpace)))
			}
			if start != nil && end != nil && bytes.Compare(start, end) > 0 {
				start, end = end, start
			}
			want := m.expect(start, end, ro)
			got := drain(t, st.Scan(bg, "t", "g", start, end, ro.options()...))
			if len(got) != len(want) {
				t.Logf("seed %d round %d scan %d [%q,%q) %v: got %d rows, model %d",
					seed, round, i, start, end, ro, len(got), len(want))
				return false
			}
			for j := range want {
				if !bytes.Equal(got[j].Key, want[j].Key) || got[j].TS != want[j].TS || !bytes.Equal(got[j].Value, want[j].Value) {
					t.Logf("seed %d round %d scan %d %v: row %d = %q@%d %q, model %q@%d %q",
						seed, round, i, ro, j, got[j].Key, got[j].TS, got[j].Value, want[j].Key, want[j].TS, want[j].Value)
					return false
				}
			}
		}
	}
	return true
}

func TestCompactingScanModelEmbedded(t *testing.T) {
	f := func(seed int64) bool {
		db, err := logbase.Open(t.TempDir(), logbase.Options{
			SegmentSize:         1 << 20,
			CompactKeepVersions: 3,
		})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer db.Close()
		tick := func(t *testing.T) {
			t.Helper()
			// Seal the tail so every round's writes become compactable,
			// then run the compactor's pass.
			db.Server().Log().Rotate()
			if _, _, err := db.Server().AutoCompactTick(); err != nil {
				t.Fatalf("AutoCompactTick: %v", err)
			}
		}
		ok := runCompactingModelScenario(t, db, tick, seed, 6, 12)
		if ok && db.SortedFraction() < 0.5 {
			t.Logf("seed %d: sorted fraction %.3f < 0.5 after ticks", seed, db.SortedFraction())
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Fatal(err)
	}
}

func TestCompactingScanModelCluster(t *testing.T) {
	f := func(seed int64) bool {
		cc, c := newClusterStore(t, 3, 5)
		tick := func(t *testing.T) {
			t.Helper()
			for _, id := range c.LiveServers() {
				c.Server(id).Log().Rotate()
			}
			if err := c.AutoCompactTick(); err != nil {
				t.Fatalf("AutoCompactTick: %v", err)
			}
		}
		return runCompactingModelScenario(t, cc, tick, seed, 5, 10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3, Rand: rand.New(rand.NewSource(23))}); err != nil {
		t.Fatal(err)
	}
}
