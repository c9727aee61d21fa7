package logbase_test

import (
	"fmt"
	"strconv"
	"testing"

	logbase "repro"
)

func queryDB(t *testing.T, n int) *logbase.DB {
	t.Helper()
	db, err := logbase.Open(t.TempDir(), logbase.Options{ReadCacheBytes: 4 << 20})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := db.CreateTable("orders", "amount"); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("order%06d", i))
		if err := db.Put(bg, "orders", "amount", key, []byte(strconv.Itoa(i%100))); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	return db
}

func TestDBQueryAggregates(t *testing.T) {
	db := queryDB(t, 1000)
	res, err := db.Exec(bg, logbase.Q("orders").Group("amount").
		Agg(logbase.Count).
		AggOf(logbase.Sum, "orders", logbase.ValExpr()).
		AggOf(logbase.Avg, "orders", logbase.ValExpr()))
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if res.Rows != 1000 {
		t.Fatalf("rows = %d, want 1000", res.Rows)
	}
	if got := res.Value(1, logbase.Sum); got != 49500 { // 10 * (0+..+99)
		t.Fatalf("sum = %g, want 49500", got)
	}
	if got := res.Value(2, logbase.Avg); got != 49.5 {
		t.Fatalf("avg = %g, want 49.5", got)
	}
}

func TestDBQueryGroupBy(t *testing.T) {
	db := queryDB(t, 500)
	// Bucket on the hundreds digit: a 9-byte key prefix.
	res, err := db.Exec(bg, logbase.Q("orders").Group("amount").GroupBy(len("order0001")).Agg(logbase.Count))
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if len(res.Groups) != 5 {
		t.Fatalf("groups = %d, want 5", len(res.Groups))
	}
	for _, g := range res.Groups {
		if g.Rows != 100 {
			t.Fatalf("group %q rows = %d, want 100", g.Key, g.Rows)
		}
	}
}

// The public-surface half of the snapshot-pinning satellite test: a
// statement pinned At a timestamp taken before new commits keeps
// answering from the old version set.
func TestDBSnapshotPinned(t *testing.T) {
	db := queryDB(t, 300)
	count := func() *logbase.Statement { return logbase.Q("orders").Group("amount").Agg(logbase.Count) }
	before, err := db.Exec(bg, count())
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	for i := 0; i < 50; i++ {
		if err := db.Put(bg, "orders", "amount", []byte(fmt.Sprintf("late%04d", i)), []byte("1")); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	after, err := db.Exec(bg, count().At(before.TS))
	if err != nil {
		t.Fatalf("Exec At: %v", err)
	}
	if after.Rows != before.Rows || after.TS != before.TS {
		t.Fatalf("pinned snapshot moved: %d rows @%d -> %d rows @%d", before.Rows, before.TS, after.Rows, after.TS)
	}
	cur, err := db.Exec(bg, count())
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if cur.Rows != before.Rows+50 {
		t.Fatalf("current rows = %d, want %d", cur.Rows, before.Rows+50)
	}
}

func TestDBExecAtHistorical(t *testing.T) {
	db, err := logbase.Open(t.TempDir(), logbase.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	db.CreateTable("t", "g")
	db.Put(bg, "t", "g", []byte("a"), []byte("1"))
	row, err := db.Get(bg, "t", "g", []byte("a"))
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	tsV1 := row.TS
	db.Put(bg, "t", "g", []byte("a"), []byte("100"))

	sum := func() *logbase.Statement {
		return logbase.Q("t").Group("g").AggOf(logbase.Sum, "t", logbase.ValExpr())
	}
	res, err := db.Exec(bg, sum().At(tsV1))
	if err != nil {
		t.Fatalf("Exec At: %v", err)
	}
	if got := res.Value(0, logbase.Sum); got != 1 {
		t.Fatalf("historical sum = %g, want 1 (version at ts %d)", got, tsV1)
	}
	res, err = db.Exec(bg, sum())
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if got := res.Value(0, logbase.Sum); got != 100 {
		t.Fatalf("current sum = %g, want 100", got)
	}
}
