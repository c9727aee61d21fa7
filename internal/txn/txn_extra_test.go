package txn

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

func TestSnapshotStableAcrossManyCommits(t *testing.T) {
	f := newFixture(t)
	f.seed(t, tabA, "k", "v0")
	reader := f.m.Begin()
	first, err := reader.Get(tabA, groupG, []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	// 20 committed overwrites while the reader stays open.
	for i := 1; i <= 20; i++ {
		if err := f.m.RunTxn(3, func(tx *Txn) error {
			return tx.Put(tabA, groupG, []byte("k"), []byte(fmt.Sprintf("v%d", i)))
		}); err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	again, err := reader.Get(tabA, groupG, []byte("k"))
	if err != nil || string(again) != string(first) {
		t.Errorf("snapshot drifted: %q -> %q", first, again)
	}
	if err := reader.Commit(); err != nil {
		t.Errorf("read-only commit: %v", err)
	}
}

func TestInsertInsertConflictOnSameKey(t *testing.T) {
	// Two transactions blind-inserting the same brand-new key: the
	// second committer must restart (its recorded read version 0 no
	// longer matches).
	f := newFixture(t)
	t1 := f.m.Begin()
	t2 := f.m.Begin()
	t1.Put(tabA, groupG, []byte("fresh"), []byte("one"))
	t2.Put(tabA, groupG, []byte("fresh"), []byte("two"))
	if err := t1.Commit(); err != nil {
		t.Fatalf("t1: %v", err)
	}
	if err := t2.Commit(); !errors.Is(err, ErrConflict) {
		t.Errorf("t2 err = %v, want conflict", err)
	}
}

func TestDeletePutConflict(t *testing.T) {
	f := newFixture(t)
	f.seed(t, tabA, "d", "v")
	t1 := f.m.Begin()
	t2 := f.m.Begin()
	t1.Get(tabA, groupG, []byte("d"))
	t2.Get(tabA, groupG, []byte("d"))
	t1.Delete(tabA, groupG, []byte("d"))
	t2.Put(tabA, groupG, []byte("d"), []byte("survivor"))
	if err := t1.Commit(); err != nil {
		t.Fatalf("t1 delete: %v", err)
	}
	if err := t2.Commit(); !errors.Is(err, ErrConflict) {
		t.Errorf("t2 after delete err = %v, want conflict", err)
	}
	check := f.m.Begin()
	if _, err := check.Get(tabA, groupG, []byte("d")); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("delete lost: %v", err)
	}
}

func TestUseAfterCommitRejected(t *testing.T) {
	f := newFixture(t)
	tx := f.m.Begin()
	tx.Put(tabA, groupG, []byte("k"), []byte("v"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Get(tabA, groupG, []byte("k")); !errors.Is(err, ErrTxnDone) {
		t.Errorf("Get after commit err = %v", err)
	}
	if err := tx.Put(tabA, groupG, []byte("k"), nil); !errors.Is(err, ErrTxnDone) {
		t.Errorf("Put after commit err = %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Errorf("double commit err = %v", err)
	}
}

func TestManyDisjointTxnsNoInterference(t *testing.T) {
	f := newFixture(t)
	var wg sync.WaitGroup
	var attempts atomic.Int64
	const writers = 10
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := []byte(fmt.Sprintf("own-%02d", w))
			for i := 0; i < 10; i++ {
				err := f.m.RunTxn(5, func(tx *Txn) error {
					attempts.Add(1)
					return tx.Put(tabA, groupG, key, []byte(fmt.Sprintf("%d", i)))
				})
				if err != nil {
					t.Errorf("writer %d iter %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := attempts.Load(); n != writers*10 {
		t.Errorf("%d attempts for %d disjoint transactions: some restarted", n, writers*10)
	}
	tx := f.m.Begin()
	defer tx.Abort()
	for w := 0; w < writers; w++ {
		if v, err := tx.Get(tabA, groupG, []byte(fmt.Sprintf("own-%02d", w))); err != nil || string(v) != "9" {
			t.Errorf("writer %d's key = %q, %v; want its last write 9", w, v, err)
		}
	}
}

func TestReadTSVisibility(t *testing.T) {
	f := newFixture(t)
	f.seed(t, tabA, "k", "v1")
	tx := f.m.Begin()
	// A transaction begun later reads at a later snapshot; the earlier
	// one keeps its own.
	f.seed(t, tabA, "k", "v2")
	tx2 := f.m.Begin()
	if v, err := tx.Get(tabA, groupG, []byte("k")); err != nil || string(v) != "v1" {
		t.Errorf("first snapshot reads %q, %v; want v1", v, err)
	}
	if v, err := tx2.Get(tabA, groupG, []byte("k")); err != nil || string(v) != "v2" {
		t.Errorf("later snapshot reads %q, %v; want v2", v, err)
	}
	tx.Abort()
	tx2.Abort()
}
