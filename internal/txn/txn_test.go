package txn

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/partition"
)

const (
	tabA   = "t/0000"
	tabB   = "t/0001" // served by a second server: forces 2PC
	groupG = "cg"
)

type fixture struct {
	svc *coord.Service
	m   *Manager
	s1  *core.Server
	s2  *core.Server
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	fs, err := dfs.New(t.TempDir(), dfs.Config{NumDataNodes: 3, BlockSize: 1 << 16})
	if err != nil {
		t.Fatalf("dfs.New: %v", err)
	}
	s1, err := core.NewServer(fs, "s1", core.Config{SegmentSize: 1 << 20})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	s2, err := core.NewServer(fs, "s2", core.Config{SegmentSize: 1 << 20})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	s1.AddTablet(partition.Tablet{ID: tabA, Table: "t"}, []string{groupG})
	s2.AddTablet(partition.Tablet{ID: tabB, Table: "t"}, []string{groupG})
	svc := coord.New()
	f := &fixture{svc: svc, s1: s1, s2: s2}
	f.m = NewManager(svc, ResolverFunc(func(tablet string) (*core.Server, error) {
		switch tablet {
		case tabA:
			return s1, nil
		case tabB:
			return s2, nil
		}
		return nil, fmt.Errorf("no server for %s", tablet)
	}))
	return f
}

// seed installs an initial committed version of key -> value.
func (f *fixture) seed(t *testing.T, tablet string, key, value string) {
	t.Helper()
	tx := f.m.Begin()
	if err := tx.Put(tablet, groupG, []byte(key), []byte(value)); err != nil {
		t.Fatalf("seed put: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("seed commit: %v", err)
	}
}

func TestCommitAndReadBack(t *testing.T) {
	f := newFixture(t)
	tx := f.m.Begin()
	tx.Put(tabA, groupG, []byte("k"), []byte("v1"))
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	tx2 := f.m.Begin()
	v, err := tx2.Get(tabA, groupG, []byte("k"))
	if err != nil || string(v) != "v1" {
		t.Errorf("Get = %q err=%v", v, err)
	}
	if err := tx2.Commit(); err != nil {
		t.Errorf("read-only commit: %v", err)
	}
}

func TestReadYourOwnWrites(t *testing.T) {
	f := newFixture(t)
	tx := f.m.Begin()
	tx.Put(tabA, groupG, []byte("k"), []byte("mine"))
	v, err := tx.Get(tabA, groupG, []byte("k"))
	if err != nil || string(v) != "mine" {
		t.Errorf("own write invisible: %q err=%v", v, err)
	}
	tx.Delete(tabA, groupG, []byte("k"))
	if _, err := tx.Get(tabA, groupG, []byte("k")); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("own delete invisible: err=%v", err)
	}
	tx.Abort()
}

func TestAbortDiscardsWrites(t *testing.T) {
	f := newFixture(t)
	tx := f.m.Begin()
	tx.Put(tabA, groupG, []byte("k"), []byte("v"))
	tx.Abort()
	tx2 := f.m.Begin()
	if _, err := tx2.Get(tabA, groupG, []byte("k")); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("aborted write visible: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Errorf("commit after abort err = %v", err)
	}
}

func TestFirstCommitterWins(t *testing.T) {
	f := newFixture(t)
	f.seed(t, tabA, "x", "0")

	t1 := f.m.Begin()
	t2 := f.m.Begin()
	// Both read the same version.
	if _, err := t1.Get(tabA, groupG, []byte("x")); err != nil {
		t.Fatalf("t1 get: %v", err)
	}
	if _, err := t2.Get(tabA, groupG, []byte("x")); err != nil {
		t.Fatalf("t2 get: %v", err)
	}
	t1.Put(tabA, groupG, []byte("x"), []byte("t1"))
	t2.Put(tabA, groupG, []byte("x"), []byte("t2"))
	if err := t1.Commit(); err != nil {
		t.Fatalf("first committer failed: %v", err)
	}
	if err := t2.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("second committer err = %v, want ErrConflict", err)
	}
	// The surviving value is t1's.
	t3 := f.m.Begin()
	v, _ := t3.Get(tabA, groupG, []byte("x"))
	if string(v) != "t1" {
		t.Errorf("value = %q, want t1", v)
	}
}

func TestLostUpdatePrevented(t *testing.T) {
	// r1[x0] w2[x2] c2 w1[x1] c1 must NOT commit both.
	f := newFixture(t)
	f.seed(t, tabA, "cnt", "10")

	t1 := f.m.Begin()
	v1, _ := t1.Get(tabA, groupG, []byte("cnt"))

	t2 := f.m.Begin()
	v2, _ := t2.Get(tabA, groupG, []byte("cnt"))
	t2.Put(tabA, groupG, []byte("cnt"), append(v2, '+'))
	if err := t2.Commit(); err != nil {
		t.Fatalf("t2 commit: %v", err)
	}

	t1.Put(tabA, groupG, []byte("cnt"), append(v1, '!'))
	if err := t1.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("lost update not prevented: err = %v", err)
	}
}

func TestDirtyReadPrevented(t *testing.T) {
	f := newFixture(t)
	f.seed(t, tabA, "d", "clean")
	t1 := f.m.Begin()
	t1.Put(tabA, groupG, []byte("d"), []byte("dirty"))
	// Concurrent reader must not see t1's uncommitted write.
	t2 := f.m.Begin()
	v, err := t2.Get(tabA, groupG, []byte("d"))
	if err != nil || string(v) != "clean" {
		t.Errorf("dirty read: got %q err=%v", v, err)
	}
	t1.Abort()
}

func TestFuzzyReadPrevented(t *testing.T) {
	// r1[x0] ... w2[x2] c2 ... r1[x] must return x0 again.
	f := newFixture(t)
	f.seed(t, tabA, "f", "v0")
	t1 := f.m.Begin()
	first, _ := t1.Get(tabA, groupG, []byte("f"))

	t2 := f.m.Begin()
	t2.Put(tabA, groupG, []byte("f"), []byte("v2"))
	if err := t2.Commit(); err != nil {
		t.Fatalf("t2: %v", err)
	}

	second, err := t1.Get(tabA, groupG, []byte("f"))
	if err != nil || string(second) != string(first) {
		t.Errorf("fuzzy read: first %q then %q", first, second)
	}
}

func TestReadSkewPrevented(t *testing.T) {
	// r1[x0] w2[x2] w2[y2] c2 r1[y] must see y0, not y2.
	f := newFixture(t)
	f.seed(t, tabA, "x", "x0")
	f.seed(t, tabA, "y", "y0")

	t1 := f.m.Begin()
	if _, err := t1.Get(tabA, groupG, []byte("x")); err != nil {
		t.Fatal(err)
	}
	t2 := f.m.Begin()
	t2.Put(tabA, groupG, []byte("x"), []byte("x2"))
	t2.Put(tabA, groupG, []byte("y"), []byte("y2"))
	if err := t2.Commit(); err != nil {
		t.Fatalf("t2: %v", err)
	}
	y, err := t1.Get(tabA, groupG, []byte("y"))
	if err != nil || string(y) != "y0" {
		t.Errorf("read skew: y = %q err=%v, want y0", y, err)
	}
}

func TestPhantomPrevented(t *testing.T) {
	// A snapshot range scan repeated within a transaction must not see
	// rows committed meanwhile.
	f := newFixture(t)
	for i := 0; i < 5; i++ {
		f.seed(t, tabA, fmt.Sprintf("p/%d", i), "v")
	}
	t1 := f.m.Begin()
	count := func() int {
		n := 0
		t1.Scan(context.Background(), tabA, groupG, []byte("p/"), []byte("p/\xff"), func(core.Row) bool { n++; return true })
		return n
	}
	before := count()

	t2 := f.m.Begin()
	t2.Put(tabA, groupG, []byte("p/99"), []byte("phantom"))
	if err := t2.Commit(); err != nil {
		t.Fatalf("t2: %v", err)
	}
	after := count()
	if before != 5 || after != 5 {
		t.Errorf("phantom: scan saw %d then %d rows", before, after)
	}
}

func TestDirtyWritePrevented(t *testing.T) {
	// w1[x1] w2[x2] with interleaved commits: the write locks serialise
	// the writers and the loser restarts; the final value is a committed
	// one, never an interleaved mess.
	f := newFixture(t)
	f.seed(t, tabA, "w", "base")
	var wg sync.WaitGroup
	results := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = f.m.RunTxn(10, func(tx *Txn) error {
				if _, err := tx.Get(tabA, groupG, []byte("w")); err != nil {
					return err
				}
				return tx.Put(tabA, groupG, []byte("w"), []byte(fmt.Sprintf("writer-%d", i)))
			})
		}(i)
	}
	wg.Wait()
	if results[0] != nil || results[1] != nil {
		t.Fatalf("writers failed: %v / %v", results[0], results[1])
	}
	tx := f.m.Begin()
	v, _ := tx.Get(tabA, groupG, []byte("w"))
	if string(v) != "writer-0" && string(v) != "writer-1" {
		t.Errorf("final value %q is not a committed write", v)
	}
}

func TestWriteSkewAllowed(t *testing.T) {
	// r1[x0] r2[y0] w1[y1] w2[x2] c1 c2 — snapshot isolation permits
	// this (the paper proves LogBase "still suffers from write skew").
	f := newFixture(t)
	f.seed(t, tabA, "x", "1")
	f.seed(t, tabA, "y", "1")

	t1 := f.m.Begin()
	t2 := f.m.Begin()
	if _, err := t1.Get(tabA, groupG, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Get(tabA, groupG, []byte("y")); err != nil {
		t.Fatal(err)
	}
	t1.Put(tabA, groupG, []byte("y"), []byte("0")) // disjoint write sets
	t2.Put(tabA, groupG, []byte("x"), []byte("0"))
	if err := t1.Commit(); err != nil {
		t.Errorf("t1: %v", err)
	}
	if err := t2.Commit(); err != nil {
		t.Errorf("write skew was blocked (stronger than snapshot isolation): %v", err)
	}
}

func TestCrossServer2PC(t *testing.T) {
	f := newFixture(t)
	tx := f.m.Begin()
	tx.Put(tabA, groupG, []byte("a"), []byte("on-s1"))
	tx.Put(tabB, groupG, []byte("b"), []byte("on-s2"))
	if err := tx.Commit(); err != nil {
		t.Fatalf("distributed commit: %v", err)
	}
	check := f.m.Begin()
	va, err := check.Get(tabA, groupG, []byte("a"))
	if err != nil || string(va) != "on-s1" {
		t.Errorf("a = %q err=%v", va, err)
	}
	vb, err := check.Get(tabB, groupG, []byte("b"))
	if err != nil || string(vb) != "on-s2" {
		t.Errorf("b = %q err=%v", vb, err)
	}
	// Both servers must have persisted a commit record for the txn: a
	// recovery on either side keeps the writes.
	for i, srv := range []*core.Server{f.s1, f.s2} {
		if got := srv.Stats().Writes.Load(); got == 0 {
			t.Errorf("server %d applied no writes", i+1)
		}
	}
}

func TestCrossServerConflict(t *testing.T) {
	f := newFixture(t)
	f.seed(t, tabA, "shared", "0")
	f.seed(t, tabB, "other", "0")

	t1 := f.m.Begin()
	t1.Get(tabA, groupG, []byte("shared"))
	t1.Put(tabA, groupG, []byte("shared"), []byte("t1"))
	t1.Put(tabB, groupG, []byte("other"), []byte("t1"))

	t2 := f.m.Begin()
	t2.Get(tabA, groupG, []byte("shared"))
	t2.Put(tabA, groupG, []byte("shared"), []byte("t2"))

	if err := t1.Commit(); err != nil {
		t.Fatalf("t1: %v", err)
	}
	if err := t2.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("t2 err = %v, want conflict", err)
	}
}

func TestRunTxnRetries(t *testing.T) {
	f := newFixture(t)
	f.seed(t, tabA, "acct", "100")
	// 8 concurrent increments; every one must eventually apply exactly
	// once (MVOCC restarts losers).
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := f.m.RunTxn(50, func(tx *Txn) error {
				v, err := tx.Get(tabA, groupG, []byte("acct"))
				if err != nil {
					return err
				}
				return tx.Put(tabA, groupG, []byte("acct"), append([]byte(nil), append(v, 'i')...))
			})
			if err != nil {
				t.Errorf("RunTxn: %v", err)
			}
		}()
	}
	wg.Wait()
	tx := f.m.Begin()
	v, _ := tx.Get(tabA, groupG, []byte("acct"))
	if len(v) != 3+8 {
		t.Errorf("value %q: %d increments applied, want 8", v, len(v)-3)
	}
}

func TestReadOnlyNeverBlocks(t *testing.T) {
	f := newFixture(t)
	f.seed(t, tabA, "r", "v")
	// A writer holding locks must not block readers (MVOCC separation).
	t1 := f.m.Begin()
	t1.Get(tabA, groupG, []byte("r"))
	t1.Put(tabA, groupG, []byte("r"), []byte("new"))
	// Reader proceeds and commits while t1 is still open.
	t2 := f.m.Begin()
	if _, err := t2.Get(tabA, groupG, []byte("r")); err != nil {
		t.Fatalf("reader blocked/failed: %v", err)
	}
	if err := t2.Commit(); err != nil {
		t.Errorf("read-only commit: %v", err)
	}
	if err := t1.Commit(); err != nil {
		t.Errorf("writer commit: %v", err)
	}
}

func TestTxnDeleteCommits(t *testing.T) {
	f := newFixture(t)
	f.seed(t, tabA, "del", "v")
	err := f.m.RunTxn(3, func(tx *Txn) error {
		if _, err := tx.Get(tabA, groupG, []byte("del")); err != nil {
			return err
		}
		return tx.Delete(tabA, groupG, []byte("del"))
	})
	if err != nil {
		t.Fatalf("delete txn: %v", err)
	}
	tx := f.m.Begin()
	if _, err := tx.Get(tabA, groupG, []byte("del")); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("deleted key visible: %v", err)
	}
}

// A scan whose callback stops at the first row reads one index page,
// not the whole range: over a 50K-key tablet it allocates well under
// what collecting every key (17 MB) costs — with and without a
// buffered write to merge.
func TestScanEarlyStopAllocs(t *testing.T) {
	f := newFixture(t)
	const n, chunk = 50000, 1000
	value := make([]byte, 64)
	ts := f.svc.NextTimestamp()
	for i := 0; i < n; i += chunk {
		batch := make([]core.BatchWrite, chunk)
		for j := range batch {
			batch[j] = core.BatchWrite{Tablet: tabA, Group: groupG, Key: []byte(fmt.Sprintf("k%06d", i+j)), Value: value, TS: ts}
		}
		if err := f.s1.ApplyBatch(batch); err != nil {
			t.Fatalf("ApplyBatch: %v", err)
		}
	}
	for _, buffered := range []bool{false, true} {
		tx := f.m.Begin()
		if buffered {
			tx.Put(tabA, groupG, []byte("k025000"), []byte("mine"))
		}
		rows := 0
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tx.Scan(context.Background(), tabA, groupG, nil, nil, func(core.Row) bool { rows++; return false })
		runtime.ReadMemStats(&after)
		if err != nil || rows != 1 {
			t.Fatalf("buffered=%v: scan saw %d rows, err %v; want 1 row", buffered, rows, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 2<<20 {
			t.Errorf("buffered=%v: early-stop scan allocated %d bytes, want < 2 MB", buffered, alloc)
		}
		tx.Abort()
	}
}
