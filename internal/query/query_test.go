package query

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/partition"
	"repro/internal/readopt"
)

const (
	testTablet = "t/0000"
	testGroup  = "g"
)

func newServer(t *testing.T) *core.Server {
	t.Helper()
	fs, err := dfs.New(t.TempDir(), dfs.Config{NumDataNodes: 1, BlockSize: 1 << 16})
	if err != nil {
		t.Fatalf("dfs.New: %v", err)
	}
	s, err := core.NewServer(fs, "ts1", core.Config{SegmentSize: 1 << 20})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	s.AddTablet(partition.Tablet{ID: testTablet, Table: "t"}, []string{testGroup})
	return s
}

// load writes n rows keyed user%06d with the row index as decimal value
// at timestamps 1..n, returning the snapshot timestamp after the load.
func load(t *testing.T, s *core.Server, n int) int64 {
	t.Helper()
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("user%06d", i))
		if err := s.Write(testTablet, testGroup, key, int64(i+1), []byte(strconv.Itoa(i))); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	return int64(n)
}

// serverFetcher is a Fetcher over the tablets of one tablet server
// holding table "t": rows come from ParallelScan, partials from
// FoldScan — what the embedded backend does.
type serverFetcher struct {
	srv     *core.Server
	tablets []string
	ts      int64
}

func (sf serverFetcher) Fetch(ctx context.Context, _ int, f RelFilter) ([]core.Row, error) {
	var rows []core.Row
	opt := core.ReadScanOptions(f.Start, f.End, sf.ts, readopt.Options{Key: f.Key, Value: f.Value})
	for _, tab := range sf.tablets {
		err := sf.srv.ParallelScan(ctx, tab, testGroup, opt, func(batch []core.Row) error {
			rows = append(rows, batch...)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

func (sf serverFetcher) FetchSecondary(context.Context, int, string, [][]byte) ([]core.Row, error) {
	return nil, errors.New("no secondary indexes")
}

func (sf serverFetcher) FetchPartial(ctx context.Context, _ int, f RelFilter, fold Fold) (Result, error) {
	return FoldScan(ctx, sf.srv, sf.tablets, testGroup, sf.ts, f, fold)
}

// exec runs a join-free statement over table "t" of s at ts through the
// one executor, and checks the forced row-fetch plan agrees.
func exec(t *testing.T, s *core.Server, ts int64, stmt *Statement, tablets ...string) Result {
	t.Helper()
	if len(tablets) == 0 {
		tablets = []string{testTablet}
	}
	sf := serverFetcher{srv: s, tablets: tablets, ts: ts}
	res, err := ExecStatement(context.Background(), stmt, ts, sf, ExecOptions{})
	if err != nil {
		t.Fatalf("ExecStatement: %v", err)
	}
	rowFetch, err := ExecStatement(context.Background(), stmt, ts, sf, ExecOptions{NoPushdown: true})
	if err != nil {
		t.Fatalf("ExecStatement(NoPushdown): %v", err)
	}
	if !reflect.DeepEqual(res, rowFetch) {
		t.Fatalf("partial plan and row-fetch plan disagree:\n partial   %+v\n row-fetch %+v", res, rowFetch)
	}
	return res
}

func TestAggregates(t *testing.T) {
	s := newServer(t)
	const n = 1000
	ts := load(t, s, n)
	stmt := NewStatement("t").Group(testGroup).Agg(Count)
	for _, k := range []AggKind{Sum, Min, Max, Avg} {
		stmt.AggOf(k, "t", ValExpr())
	}
	stmt.Workers = 4
	res := exec(t, s, ts, stmt)
	if res.TS != ts || res.Rows != n {
		t.Fatalf("res.TS=%d rows=%d, want %d/%d", res.TS, res.Rows, ts, n)
	}
	wantSum := float64(n*(n-1)) / 2
	checks := []struct {
		i    int
		kind AggKind
		want float64
	}{
		{0, Count, n},
		{1, Sum, wantSum},
		{2, Min, 0},
		{3, Max, n - 1},
		{4, Avg, wantSum / n},
	}
	for _, c := range checks {
		if got := res.Value(c.i, c.kind); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%v = %g, want %g", c.kind, got, c.want)
		}
	}
}

func TestSnapshotIgnoresLaterWrites(t *testing.T) {
	s := newServer(t)
	const n = 400
	ts := load(t, s, n)
	stmt := NewStatement("t").Group(testGroup).AggOf(Sum, "t", ValExpr())
	stmt.Workers = 4
	before := exec(t, s, ts, stmt)

	// Commit new rows AND overwrite existing ones after the snapshot.
	for i := 0; i < 100; i++ {
		if err := s.Write(testTablet, testGroup, []byte(fmt.Sprintf("user%06d", i)), int64(n+i+1), []byte("999999")); err != nil {
			t.Fatalf("overwrite: %v", err)
		}
		if err := s.Write(testTablet, testGroup, []byte(fmt.Sprintf("zuser%06d", i)), int64(n+200+i), []byte("1")); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}

	after := exec(t, s, ts, stmt)
	if after.Rows != before.Rows || after.Value(0, Sum) != before.Value(0, Sum) {
		t.Fatalf("snapshot drifted: before rows=%d sum=%g, after rows=%d sum=%g",
			before.Rows, before.Value(0, Sum), after.Rows, after.Value(0, Sum))
	}
	// And a current snapshot must see the new state.
	cur := exec(t, s, 1<<40, stmt)
	if cur.Rows != n+100 || cur.Value(0, Sum) == before.Value(0, Sum) {
		t.Fatalf("current snapshot rows=%d sum=%g, want %d rows and a different sum", cur.Rows, cur.Value(0, Sum), n+100)
	}
}

func TestGroupByAndFilters(t *testing.T) {
	s := newServer(t)
	const n = 900
	ts := load(t, s, n)
	// Group on the hundreds digit of the key; keep values containing "3".
	stmt := NewStatement("t").Group(testGroup).
		Range([]byte("user000100"), []byte("user000700")).
		FilterValue(readopt.Contains([]byte("3"))).
		GroupBy(len("user0001")).Agg(Count).AggOf(Sum, "t", ValExpr())
	stmt.Workers = 4
	res := exec(t, s, ts, stmt)

	want := map[string]*GroupResult{}
	for i := 100; i < 700; i++ {
		if v := strconv.Itoa(i); bytes.Contains([]byte(v), []byte("3")) {
			key := fmt.Sprintf("user000%d", i/100)
			if want[key] == nil {
				want[key] = &GroupResult{Key: key, Aggs: make([]AggState, 2)}
			}
			want[key].Rows++
			want[key].Aggs[0].Add(0)
			want[key].Aggs[1].Add(float64(i))
		}
	}
	if len(res.Groups) != 6 {
		t.Fatalf("got %d groups, want 6: %+v", len(res.Groups), res.Groups)
	}
	var totalRows int64
	for i, g := range res.Groups {
		key := fmt.Sprintf("user000%d", i+1)
		if !reflect.DeepEqual(g, *want[key]) {
			t.Errorf("group %d = %+v, want %+v (sorted by key)", i, g, *want[key])
		}
		totalRows += g.Rows
	}
	if totalRows != res.Rows || res.Rows == 0 {
		t.Fatalf("rows = %d, groups sum to %d", res.Rows, totalRows)
	}
}

func TestMultiTargetMerge(t *testing.T) {
	// Two tablets on one server: the partial step folds across both.
	s := newServer(t)
	s.AddTablet(partition.Tablet{ID: "t/a", Table: "t"}, []string{testGroup})
	s.AddTablet(partition.Tablet{ID: "t/b", Table: "t"}, []string{testGroup})
	for i := 0; i < 100; i++ {
		tab := "t/a"
		if i%2 == 1 {
			tab = "t/b"
		}
		if err := s.Write(tab, testGroup, []byte(fmt.Sprintf("k%04d", i)), int64(i+1), []byte("1")); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	res := exec(t, s, 200, NewStatement("t").Group(testGroup).AggOf(Sum, "t", ValExpr()), "t/a", "t/b")
	if res.Rows != 100 || res.Value(0, Sum) != 100 {
		t.Fatalf("merged rows=%d sum=%g, want 100/100", res.Rows, res.Value(0, Sum))
	}
}

func TestResultMerge(t *testing.T) {
	a := Result{TS: 9, Rows: 3, Groups: []GroupResult{
		{Key: "a", Rows: 2, Aggs: []AggState{{Count: 2, Sum: 10, Min: 4, Max: 6}}},
		{Key: "b", Rows: 1, Aggs: []AggState{{Count: 1, Sum: 7, Min: 7, Max: 7}}},
	}}
	b := Result{TS: 9, Rows: 2, Groups: []GroupResult{
		{Key: "b", Rows: 1, Aggs: []AggState{{Count: 1, Sum: 1, Min: 1, Max: 1}}},
		{Key: "c", Rows: 1, Aggs: []AggState{{Count: 1, Sum: 5, Min: 5, Max: 5}}},
	}}
	a.Merge(b)
	if a.Rows != 5 || len(a.Groups) != 3 {
		t.Fatalf("merged rows=%d groups=%d", a.Rows, len(a.Groups))
	}
	gb, ok := a.Group("b")
	if !ok || gb.Rows != 2 || gb.Aggs[0].Sum != 8 || gb.Aggs[0].Min != 1 || gb.Aggs[0].Max != 7 {
		t.Fatalf("group b merged wrong: %+v", gb)
	}
	if avg := gb.Aggs[0].Value(Avg); avg != 4 {
		t.Fatalf("avg = %g, want 4", avg)
	}
}

// errFetcher fails every fetch; the executor must surface the error.
type errFetcher struct{}

func (errFetcher) Fetch(context.Context, int, RelFilter) ([]core.Row, error) {
	return nil, errors.New("disk on fire")
}

func (errFetcher) FetchSecondary(context.Context, int, string, [][]byte) ([]core.Row, error) {
	return nil, errors.New("disk on fire")
}

func (errFetcher) FetchPartial(context.Context, int, RelFilter, Fold) (Result, error) {
	return Result{}, errors.New("disk on fire")
}

func TestScanErrorPropagates(t *testing.T) {
	stmt := NewStatement("t").Group(testGroup).Agg(Count)
	for _, opts := range []ExecOptions{{}, {NoPushdown: true}} {
		if _, err := ExecStatement(context.Background(), stmt, 1, errFetcher{}, opts); err == nil || err.Error() != "disk on fire" {
			t.Fatalf("%+v: err = %v, want disk on fire", opts, err)
		}
	}
	// The tablet server's own scan error comes back through FoldScan.
	s := newServer(t)
	if _, err := FoldScan(context.Background(), s, []string{"t/missing"}, testGroup, 1, RelFilter{}, Fold{}); !errors.Is(err, core.ErrUnknownTablet) {
		t.Fatalf("FoldScan over a missing tablet: %v, want ErrUnknownTablet", err)
	}
}

func TestParseAggKind(t *testing.T) {
	for _, k := range []AggKind{Count, Sum, Min, Max, Avg} {
		got, err := ParseAggKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseAggKind(%s) = %v, %v", k, got, err)
		}
	}
	if _, err := ParseAggKind("MEDIAN"); err == nil {
		t.Error("ParseAggKind(MEDIAN) succeeded")
	}
}

func TestSerializablePredicateFilters(t *testing.T) {
	s := newServer(t)
	const n = 600
	ts := load(t, s, n)

	// Key predicate (shared readopt struct): index-level push-down.
	stmt := NewStatement("t").Group(testGroup).FilterKey(readopt.Prefix([]byte("user0001"))).Agg(Count)
	stmt.Workers = 3
	if res := exec(t, s, ts, stmt); res.Rows != 100 {
		t.Fatalf("key-pred rows = %d, want 100", res.Rows)
	}

	// Value predicate: post-fetch, still inside the scan workers.
	res := exec(t, s, ts, NewStatement("t").Group(testGroup).FilterValue(readopt.Contains([]byte("7"))).Agg(Count))
	want := int64(0)
	for i := 0; i < n; i++ {
		if bytes.Contains([]byte(strconv.Itoa(i)), []byte("7")) {
			want++
		}
	}
	if res.Rows != want {
		t.Fatalf("value-pred rows = %d, want %d", res.Rows, want)
	}

	// A range predicate composes with the relation's own bounds.
	stmt = NewStatement("t").Group(testGroup).Range([]byte("user000050"), nil).
		FilterKey(readopt.Range([]byte("user000100"), []byte("user000200"))).Agg(Count)
	if res := exec(t, s, ts, stmt); res.Rows != 100 {
		t.Fatalf("range-pred rows = %d, want 100", res.Rows)
	}
}
