package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cdc"
)

// writeVersions writes versions 0..n-1 of key i at timestamps
// v*1000+i+1, value "v<version>".
func writeVersions(t *testing.T, s *Server, keys, versions int) {
	t.Helper()
	for v := 0; v < versions; v++ {
		for i := 0; i < keys; i++ {
			if err := s.Write(testTablet, testGroup, k6(i), int64(v*1000+i+1), []byte(fmt.Sprintf("v%d", v))); err != nil {
				t.Fatalf("Write: %v", err)
			}
		}
	}
}

// TestRetentionPolicyVersionBound: a per-table KeepVersions policy
// overrides the (unbounded) global default at compaction time.
func TestRetentionPolicyVersionBound(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	writeVersions(t, s, 10, 4)
	s.SetRetention("users", RetentionPolicy{KeepVersions: 2})
	sealAndCompactUnsorted(t, s)
	for i := 0; i < 10; i++ {
		rows, err := versionsOf(s, k6(i))
		if err != nil {
			t.Fatalf("Versions(%s): %v", k6(i), err)
		}
		if len(rows) != 2 {
			t.Fatalf("Versions(%s) = %d rows, want 2 (policy bound)", k6(i), len(rows))
		}
		if string(rows[len(rows)-1].Value) != "v3" {
			t.Fatalf("newest retained version = %q, want v3", rows[len(rows)-1].Value)
		}
	}
	// Vacuumed snapshots resolve to not-found, not dangling entries.
	if _, err := s.GetAt(testTablet, testGroup, k6(0), 1); err == nil {
		t.Fatal("GetAt at vacuumed version unexpectedly succeeded")
	}
}

// TestRetentionPolicyZeroOverridesGlobal: the zero policy keeps
// everything even when Config.CompactKeepVersions would prune.
func TestRetentionPolicyZeroOverridesGlobal(t *testing.T) {
	s, _ := newTestServer(t, Config{CompactKeepVersions: 1})
	writeVersions(t, s, 5, 3)
	s.SetRetention("users", RetentionPolicy{})
	sealAndCompactUnsorted(t, s)
	for i := 0; i < 5; i++ {
		rows, err := versionsOf(s, k6(i))
		if err != nil {
			t.Fatalf("Versions(%s): %v", k6(i), err)
		}
		if len(rows) != 3 {
			t.Fatalf("Versions(%s) = %d rows, want all 3 (zero policy overrides global)", k6(i), len(rows))
		}
	}
}

// TestRetentionPolicyAgeBound: KeepFor prunes versions older than the
// age cutoff — resolved through SampleRetention's wall-time→timestamp
// samples — while a key's newest version always survives.
func TestRetentionPolicyAgeBound(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	// Old history at timestamps 1..20; sample, then age past KeepFor.
	for i := 0; i < 10; i++ {
		if err := s.Write(testTablet, testGroup, k6(i), int64(i+1), []byte("old")); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := s.Write(testTablet, testGroup, k6(0), 20, []byte("old2")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	s.SampleRetention()
	time.Sleep(20 * time.Millisecond)
	// Newer history AFTER the sample: only k0 and k1 get new versions.
	for i := 0; i < 2; i++ {
		if err := s.Write(testTablet, testGroup, k6(i), int64(100+i), []byte("new")); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	s.SetRetention("users", RetentionPolicy{KeepFor: 10 * time.Millisecond})
	sealAndCompactUnsorted(t, s)

	// k0 had three versions (ts 1, 20, 100): the two sampled-as-old ones
	// are beyond KeepFor and pruned; "new" survives.
	rows, err := versionsOf(s, k6(0))
	if err != nil {
		t.Fatalf("Versions(k0): %v", err)
	}
	if len(rows) != 1 || string(rows[0].Value) != "new" {
		t.Fatalf("Versions(k0) = %v, want just the new version", rows)
	}
	// k5 only has the old version — a key's newest version is never
	// age-pruned, whatever its age.
	rows, err = versionsOf(s, k6(5))
	if err != nil {
		t.Fatalf("Versions(k5): %v", err)
	}
	if len(rows) != 1 || string(rows[0].Value) != "old" {
		t.Fatalf("Versions(k5) = %v, want the old version kept (newest per key)", rows)
	}
}

// TestRetentionTightensCursorSlack pins the documented coupling between
// retention and log shipping: after a retention-driven whole-log
// compaction, a feed resuming from a pre-compaction cursor fails with
// ErrCursorTruncated instead of silently replaying coalesced history.
func TestRetentionTightensCursorSlack(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	writeVersions(t, s, 10, 2)
	feed, err := s.SubscribeRecords(0, 0)
	if err != nil {
		t.Fatalf("SubscribeRecords: %v", err)
	}
	feed.Close()
	s.SetRetention("users", RetentionPolicy{KeepVersions: 1})
	if _, err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if _, err := s.SubscribeRecords(5, 0); !errors.Is(err, cdc.ErrCursorTruncated) {
		t.Fatalf("resume below horizon err = %v, want cdc.ErrCursorTruncated", err)
	}
}

// The version bound is evaluated once per key over the sorted survivors;
// a carried tombstone sorts between a key's versions and must not make
// the next key inherit the previous key's version list. Keys differ in
// how many versions follow their tombstone.
func TestRetentionAcrossCarriedTombstones(t *testing.T) {
	s, _ := newTestServer(t, Config{CompactKeepVersions: 1})
	// A sorted segment outside the input keeps the run incremental, so
	// tombstones are carried.
	if err := s.Write(testTablet, testGroup, []byte("filler"), 1, []byte("f")); err != nil {
		t.Fatal(err)
	}
	sealAndCompactUnsorted(t, s)
	const keys = 9
	ts := int64(1)
	newest := map[int]int64{}
	for i := 0; i < keys; i++ {
		for v := 0; v < 2+i%3; v++ {
			if v == 1 {
				ts++
				if err := s.Delete(testTablet, testGroup, k6(i), ts); err != nil {
					t.Fatal(err)
				}
			}
			ts++
			if err := s.Write(testTablet, testGroup, k6(i), ts, []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		newest[i] = ts
	}
	if st := sealAndCompactUnsorted(t, s); st.RecordsKept != 2*keys {
		t.Fatalf("kept %d records, want each key's newest version and its carried tombstone (%d)", st.RecordsKept, 2*keys)
	}
	for i := 0; i < keys; i++ {
		rows, err := versionsOf(s, k6(i))
		if err != nil || len(rows) != 1 || rows[0].TS != newest[i] {
			t.Fatalf("versions of %s = %v, %v; want only ts %d", k6(i), rows, err, newest[i])
		}
	}
}
