package textproto

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/cdc"
	"repro/internal/core"
	"repro/internal/mview"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/readopt"
	"repro/internal/repl"
)

// fakeStore is an in-memory Store for protocol tests.
type fakeStore struct {
	tables   map[string]map[string]map[string][]versioned // table -> group -> key
	clock    int64
	reg      *obs.Registry         // nil = backend without a registry
	events   []cdc.Event           // every committed mutation, in LSN order
	views    map[string]mview.Spec // MVIEW CREATEs; queries are computed live from the table state
	replicas []repl.Stats          // the "fake" server's replicas in the STATS reply
	scrubs   []core.ScrubReport    // SCRUB reply; nil = nothing scrubbed
	scrubErr error
}

type versioned struct {
	ts  int64
	val []byte
}

func newFake() *fakeStore {
	return &fakeStore{tables: map[string]map[string]map[string][]versioned{}}
}

func (f *fakeStore) CreateTable(name string, groups ...string) error {
	if len(groups) == 0 {
		return errors.New("need groups")
	}
	if _, ok := f.tables[name]; !ok {
		f.tables[name] = map[string]map[string][]versioned{}
		for _, g := range groups {
			f.tables[name][g] = map[string][]versioned{}
		}
	}
	return nil
}

func (f *fakeStore) groupMap(table, group string) (map[string][]versioned, error) {
	t, ok := f.tables[table]
	if !ok {
		return nil, fmt.Errorf("no table %s", table)
	}
	g, ok := t[group]
	if !ok {
		return nil, fmt.Errorf("no group %s", group)
	}
	return g, nil
}

func (f *fakeStore) Put(_ context.Context, table, group string, key, value []byte) error {
	g, err := f.groupMap(table, group)
	if err != nil {
		return err
	}
	f.clock++
	g[string(key)] = append(g[string(key)], versioned{f.clock, append([]byte(nil), value...)})
	f.record(cdc.Put, table, group, key, value)
	return nil
}

// record appends a changefeed event mirroring a committed mutation.
func (f *fakeStore) record(kind cdc.EventKind, table, group string, key, value []byte) {
	lsn := uint64(len(f.events) + 1)
	f.events = append(f.events, cdc.Event{
		Kind:   kind,
		Table:  table,
		Group:  group,
		Key:    append([]byte(nil), key...),
		Value:  append([]byte(nil), value...),
		TS:     f.clock,
		LSN:    lsn,
		Cursor: lsn,
	})
}

func (f *fakeStore) Get(_ context.Context, table, group string, key []byte) (Row, error) {
	g, err := f.groupMap(table, group)
	if err != nil {
		return Row{}, err
	}
	vs := g[string(key)]
	if len(vs) == 0 {
		return Row{}, errors.New("not found")
	}
	last := vs[len(vs)-1]
	return Row{Key: key, TS: last.ts, Value: last.val}, nil
}

// Read serves the two point-read shapes the wire uses: every version
// (VERSIONS) or the one visible at opt.Snapshot (GETAT; 0 = latest).
func (f *fakeStore) Read(_ context.Context, table, group string, key []byte, opt readopt.Options) ([]Row, error) {
	g, err := f.groupMap(table, group)
	if err != nil {
		return nil, err
	}
	var all []Row
	for _, v := range g[string(key)] {
		if opt.Snapshot == 0 || v.ts <= opt.Snapshot {
			all = append(all, Row{Key: key, TS: v.ts, Value: v.val})
		}
	}
	if opt.AllVersions {
		return all, nil
	}
	if len(all) == 0 {
		return nil, errors.New("not found")
	}
	return all[len(all)-1:], nil
}

func (f *fakeStore) Delete(_ context.Context, table, group string, key []byte) error {
	g, err := f.groupMap(table, group)
	if err != nil {
		return err
	}
	delete(g, string(key))
	f.record(cdc.Delete, table, group, key, nil)
	return nil
}

func (f *fakeStore) Scan(ctx context.Context, table, group string, start, end []byte, opt readopt.Options) Iterator {
	g, err := f.groupMap(table, group)
	if err != nil {
		return &sliceIter{err: err}
	}
	start, end = opt.ClampRange(start, end)
	ts := opt.Snapshot
	if ts == 0 {
		ts = f.clock
	}
	var keys []string
	for k := range g {
		if len(start) > 0 && k < string(start) {
			continue
		}
		if end != nil && k >= string(end) {
			continue
		}
		if !opt.Key.Match([]byte(k)) {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if opt.Reverse {
		for i, j := 0, len(keys)-1; i < j; i, j = i+1, j-1 {
			keys[i], keys[j] = keys[j], keys[i]
		}
	}
	it := &sliceIter{}
	for _, k := range keys {
		rows, rerr := f.Read(ctx, table, group, []byte(k), readopt.Options{Snapshot: ts})
		if rerr != nil || !opt.Value.Match(rows[0].Value) {
			continue
		}
		it.rows = append(it.rows, rows[0])
		if opt.Limit > 0 && len(it.rows) >= opt.Limit {
			break
		}
	}
	return it
}

// sliceIter is a trivial in-memory Iterator for the fake store.
type sliceIter struct {
	rows []Row
	pos  int
	err  error
}

func (it *sliceIter) Next() bool {
	if it.err != nil || it.pos >= len(it.rows) {
		return false
	}
	it.pos++
	return true
}

func (it *sliceIter) Row() Row     { return it.rows[it.pos-1] }
func (it *sliceIter) Err() error   { return it.err }
func (it *sliceIter) Close() error { return it.err }

// Exec runs a query statement through the real relational executor
// (internal/query) over the fake's in-memory state, so protocol tests
// exercise joins, grouping and multi-aggregate statements end to end.
func (f *fakeStore) Exec(ctx context.Context, stmt *query.Statement) (query.Result, error) {
	if err := stmt.Validate(); err != nil {
		return query.Result{}, err
	}
	for _, r := range stmt.Rels() {
		if _, err := f.groupMap(r.Table, r.Group); err != nil {
			return query.Result{}, err
		}
	}
	ts := stmt.AtTS
	if ts == 0 {
		ts = f.clock
	}
	return query.ExecStatement(ctx, stmt, ts, &fakeFetcher{f: f, rels: stmt.Rels(), ts: ts}, query.ExecOptions{})
}

// fakeFetcher adapts the fake's Scan to the statement executor's
// storage surface (one relation fetch under a push-down filter, as rows
// or folded).
type fakeFetcher struct {
	f    *fakeStore
	rels []query.Rel
	ts   int64
}

func (ff *fakeFetcher) Fetch(ctx context.Context, rel int, flt query.RelFilter) ([]core.Row, error) {
	r := ff.rels[rel]
	it := ff.f.Scan(ctx, r.Table, r.Group, flt.Start, flt.End, readopt.Options{
		Snapshot: ff.ts, Key: flt.Key, Value: flt.Value,
	})
	defer it.Close()
	var rows []core.Row
	for it.Next() {
		rows = append(rows, it.Row())
	}
	return rows, it.Err()
}

func (ff *fakeFetcher) FetchPartial(ctx context.Context, rel int, flt query.RelFilter, fold query.Fold) (query.Result, error) {
	rows, err := ff.Fetch(ctx, rel, flt)
	return query.FoldRows(rows, ff.ts, fold), err
}

func (ff *fakeFetcher) FetchSecondary(context.Context, int, string, [][]byte) ([]core.Row, error) {
	return nil, errors.New("fake store has no secondary indexes")
}

func (f *fakeStore) Checkpoint() error { return nil }

func (f *fakeStore) Compact() (core.CompactionStats, error) { return core.CompactionStats{}, nil }

func (f *fakeStore) Scrub() ([]core.ScrubReport, error) { return f.scrubs, f.scrubErr }

func (f *fakeStore) Stats() []core.StatsView {
	return []core.StatsView{{Server: "fake", Writes: 7, SortedFraction: 0.5, Segments: 2}}
}

func (f *fakeStore) ReplicaStats() map[string][]repl.Stats {
	return map[string][]repl.Stats{"fake": f.replicas}
}

func (f *fakeStore) Metrics() *obs.Registry { return f.reg }

// Watch replays the recorded events matching the filter and then ends
// the feed — a finite stream, so WATCH sessions terminate with END.
func (f *fakeStore) Watch(_ context.Context, table, group string, start, end []byte, fromLSN uint64) (cdc.Feed, error) {
	if _, ok := f.tables[table]; !ok {
		return nil, fmt.Errorf("no table %s", table)
	}
	ff := &fakeFeed{}
	for _, ev := range f.events {
		if ev.Table != table || ev.Cursor < fromLSN {
			continue
		}
		if group != "" && ev.Group != group {
			continue
		}
		if len(start) > 0 && string(ev.Key) < string(start) {
			continue
		}
		if len(end) > 0 && string(ev.Key) >= string(end) {
			continue
		}
		ff.events = append(ff.events, ev)
	}
	return ff, nil
}

// fakeFeed is a finite replay of recorded events.
type fakeFeed struct {
	events []cdc.Event
	pos    int
	closed bool
}

func (ff *fakeFeed) Next(ctx context.Context) (cdc.Event, error) {
	if err := ctx.Err(); err != nil {
		return cdc.Event{}, err
	}
	if ff.closed || ff.pos >= len(ff.events) {
		return cdc.Event{}, cdc.ErrFeedClosed
	}
	ev := ff.events[ff.pos]
	ff.pos++
	return ev, nil
}

func (ff *fakeFeed) Close() error {
	ff.closed = true
	return nil
}

func (f *fakeStore) CreateMView(_ context.Context, spec mview.Spec) error {
	if _, err := f.groupMap(spec.Table, spec.Group); err != nil {
		return err
	}
	if _, exists := f.views[spec.Name]; exists {
		return fmt.Errorf("view %s already exists", spec.Name)
	}
	if f.views == nil {
		f.views = map[string]mview.Spec{}
	}
	f.views[spec.Name] = spec
	return nil
}

// MViewQuery answers with one statement carrying every spec aggregate.
func (f *fakeStore) MViewQuery(ctx context.Context, name string) (query.Result, error) {
	v, ok := f.views[name]
	if !ok {
		return query.Result{}, fmt.Errorf("no view %s", name)
	}
	stmt := query.NewStatement(v.Table).Group(v.Group).Range(v.Start, v.End)
	for _, kind := range v.Aggs {
		if kind == query.Count {
			stmt.Agg(kind)
		} else {
			stmt.AggOf(kind, v.Table, query.ValExpr())
		}
	}
	if v.GroupPrefix > 0 {
		stmt.GroupBy(v.GroupPrefix)
	}
	return f.Exec(ctx, stmt)
}

func (f *fakeStore) MViewStats(name string) (mview.Stats, error) {
	v, ok := f.views[name]
	if !ok {
		return mview.Stats{}, fmt.Errorf("no view %s", name)
	}
	return mview.Stats{
		Spec:         v,
		WatermarkLSN: uint64(len(f.events)), WatermarkTS: f.clock,
		Events: uint64(len(f.events)), Groups: 1, Keys: 1,
	}, nil
}

// session runs a script through Serve and returns response lines.
func session(t *testing.T, db Store, script ...string) []string {
	t.Helper()
	var out bytes.Buffer
	rw := struct {
		io.Reader
		io.Writer
	}{strings.NewReader(strings.Join(script, "\n") + "\n"), &out}
	if err := Serve(context.Background(), rw, db); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	return lines
}

func TestBasicSession(t *testing.T) {
	db := newFake()
	lines := session(t, db,
		"CREATE users profile",
		"PUT users profile alice hello world",
		"GET users profile alice",
		"DEL users profile alice",
		"GET users profile alice",
		"QUIT",
	)
	want := []string{"OK table users", "OK", "VAL 1 hello world", "OK", "ERR not found", "OK bye"}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines %v, want %d", len(lines), lines, len(want))
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
}

func TestVersionsAndGetAt(t *testing.T) {
	db := newFake()
	lines := session(t, db,
		"CREATE t g",
		"PUT t g k v1",
		"PUT t g k v2",
		"VERSIONS t g k",
		"GETAT t g k 1",
		"GETAT t g k nonsense",
	)
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "ROW k 1 v1") || !strings.Contains(joined, "ROW k 2 v2") {
		t.Errorf("versions missing: %v", lines)
	}
	if !strings.Contains(joined, "END 2") {
		t.Errorf("no END marker: %v", lines)
	}
	if !strings.Contains(joined, "VAL 1 v1") {
		t.Errorf("GETAT failed: %v", lines)
	}
	if !strings.Contains(joined, `ERR bad timestamp`) {
		t.Errorf("bad ts not rejected: %v", lines)
	}
}

func TestScanWithLimit(t *testing.T) {
	db := newFake()
	script := []string{"CREATE t g"}
	for i := 0; i < 10; i++ {
		script = append(script, fmt.Sprintf("PUT t g k%d v%d", i, i))
	}
	script = append(script, "SCAN t g k0 k9 LIMIT 3")
	lines := session(t, db, script...)
	rows := 0
	for _, l := range lines {
		if strings.HasPrefix(l, "ROW ") {
			rows++
		}
	}
	if rows != 3 {
		t.Errorf("limit ignored: %d rows", rows)
	}
	if lines[len(lines)-1] != "END 3" {
		t.Errorf("last line = %q", lines[len(lines)-1])
	}
}

// countingRW replays a script and counts the conn writes of the reply.
type countingRW struct {
	io.Reader
	out    bytes.Buffer
	writes int
	err    error // returned by every Write when set
}

func (c *countingRW) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	c.writes++
	return c.out.Write(p)
}

// A SCAN reply buffers its ROW lines and flushes with END: a few conn
// writes per reply, not one per row. A write error still ends the
// session.
func TestScanReplyFlushesOnce(t *testing.T) {
	db := newFake()
	db.CreateTable("t", "g")
	val := []byte(strings.Repeat("v", 256))
	for i := 0; i < 60; i++ {
		db.Put(context.Background(), "t", "g", []byte(fmt.Sprintf("k%03d", i)), val)
	}
	rw := &countingRW{Reader: strings.NewReader("SCAN t g * * LIMIT 50\n")}
	if err := Serve(context.Background(), rw, db); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if lines := strings.Split(strings.TrimRight(rw.out.String(), "\n"), "\n"); len(lines) != 51 || lines[50] != "END 50" {
		t.Fatalf("reply: %d lines, last %q", len(lines), lines[len(lines)-1])
	}
	if rw.writes > 6 {
		t.Errorf("SCAN LIMIT 50 took %d conn writes, want <= 6", rw.writes)
	}

	broken := errors.New("peer gone")
	rw = &countingRW{Reader: strings.NewReader("SCAN t g * * LIMIT 50\n"), err: broken}
	if err := Serve(context.Background(), rw, db); !errors.Is(err, broken) {
		t.Errorf("Serve over a failing conn = %v, want %v", err, broken)
	}
}

func TestMalformedCommands(t *testing.T) {
	db := newFake()
	lines := session(t, db,
		"BOGUS",
		"PUT onlytwo args",
		"GET t",
		"",
		"CHECKPOINT",
	)
	errCount := 0
	for _, l := range lines {
		if strings.HasPrefix(l, "ERR ") {
			errCount++
		}
	}
	if errCount != 3 {
		t.Errorf("%d ERR lines, want 3: %v", errCount, lines)
	}
	if lines[len(lines)-1] != "OK checkpoint" {
		t.Errorf("checkpoint reply = %q", lines[len(lines)-1])
	}
}

func TestQueryCommand(t *testing.T) {
	db := newFake()
	lines := session(t, db,
		"CREATE m v",
		"PUT m v a1 10",
		"PUT m v a2 20",
		"PUT m v b1 5",
		"QUERY m v AGG COUNT m *",
		"QUERY m v FROM a AGG SUM m VAL",
		"QUERY m v FROM a TO b AGG SUM m VAL",
		"QUERY m v BY m KEY 1 AGG COUNT m *",
		"QUERY m v AGG MEDIAN m VAL",
		"QUERY m v AGG SUM m VAL AT",
		"QUERY m v AGG SUM m VAL AT 2 b1",
		"QUERY m v MEDIAN",
		"QUIT",
	)
	want := []string{
		"OK table m",
		"OK", "OK", "OK",
		"AGG - COUNT 3 rows=3", "END 1 3",
		"AGG - SUM 35 rows=3", "END 1 3",
		"AGG - SUM 30 rows=2", "END 1 3",
		"AGG a COUNT 2 rows=2", "AGG b COUNT 1 rows=1", "END 2 3",
		`ERR query: unknown aggregate "MEDIAN"`,
		"ERR query: AT needs a timestamp",
		`ERR query: unexpected token "b1"`,
		`ERR query: unexpected token "MEDIAN"`,
		"OK bye",
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(want), strings.Join(lines, "\n"))
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
}

// TestWireGrammarHasOneForm: the positional QUERY prefix, its "BY n"
// shorthand and the bare-number SCAN limit are gone; each answers one
// ERR line that names the replacement.
func TestWireGrammarHasOneForm(t *testing.T) {
	db := newFake()
	session(t, db, "CREATE t g", "PUT t g k 7")
	for line, want := range map[string]string{
		"QUERY t g COUNT":              "AGG COUNT t *",
		"QUERY t g sum k0 k9":          "AGG SUM t VAL",
		"QUERY t g COUNT * * BY 1":     "AGG COUNT t *",
		"QUERY t g AGG COUNT t * BY 1": "BY wants <table> <expr> <prefix>",
		"SCAN t g * * 5":               "LIMIT 5",
	} {
		got := session(t, db, line)
		if len(got) != 1 || !strings.HasPrefix(got[0], "ERR ") || !strings.Contains(got[0], want) {
			t.Errorf("%q replied %v, want one ERR line naming %q", line, got, want)
		}
	}
	// The replacements the errors name work.
	got := session(t, db, "QUERY t g AGG COUNT t *", "SCAN t g * * LIMIT 5")
	if want := []string{"AGG - COUNT 1 rows=1", "END 1 1", "ROW k 1 7", "END 1"}; !slices.Equal(got, want) {
		t.Errorf("replacement forms replied %v, want %v", got, want)
	}
}

func TestQueryJoinCommand(t *testing.T) {
	db := newFake()
	lines := session(t, db,
		"CREATE orders g",
		"CREATE customers g",
		"PUT customers g c1 east",
		"PUT customers g c2 west",
		"PUT orders g o1 c1,10",
		"PUT orders g o2 c1,20",
		"PUT orders g o3 c2,5",
		"QUERY orders g JOIN customers g ON orders VAL[0] KEY BY customers KEY 2 AGG COUNT orders * AGG SUM orders VAL[1]",
		"QUERY orders g JOIN customers g ON orders VAL[0] KEY FILTER VAL CONTAINS east AGG COUNT orders *",
		"QUERY orders g FROM o2 AGG COUNT orders *",
		"QUERY orders g JOIN missing g ON orders VAL[0] KEY AGG COUNT orders *",
		"QUIT",
	)
	want := []string{
		"OK table orders", "OK table customers",
		"OK", "OK", "OK", "OK", "OK",
		// Two groups (customer key), two aggregates each, in statement
		// order.
		"AGG c1 COUNT 2 rows=2", "AGG c1 SUM 30 rows=2",
		"AGG c2 COUNT 1 rows=1", "AGG c2 SUM 5 rows=1",
		"END 2 5",
		// Value push-down on the joined relation keeps only the east
		// customer's orders.
		"AGG - COUNT 2 rows=2", "END 1 5",
		// Join-free: FROM right after the group.
		"AGG - COUNT 2 rows=2", "END 1 5",
		"ERR no table missing",
		"OK bye",
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(want), strings.Join(lines, "\n"))
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
}

func TestQueryCommandHistorical(t *testing.T) {
	db := newFake()
	lines := session(t, db,
		"CREATE m v",
		"PUT m v k 1",
		"PUT m v k 100",
		"QUERY m v AGG SUM m VAL AT 1",
		"QUERY m v AGG SUM m VAL",
		"QUIT",
	)
	want := []string{
		"OK table m", "OK", "OK",
		"AGG - SUM 1 rows=1", "END 1 1",
		"AGG - SUM 100 rows=1", "END 1 2",
		"OK bye",
	}
	for i := range want {
		if i >= len(lines) || lines[i] != want[i] {
			t.Fatalf("line %d = %q, want %q (all: %v)", i, lines[i], want[i], lines)
		}
	}
}

func TestScanPushdownOperands(t *testing.T) {
	db := newFake()
	script := []string{"CREATE t g"}
	for i := 0; i < 10; i++ {
		script = append(script, fmt.Sprintf("PUT t g a%d v%d", i, i))
		script = append(script, fmt.Sprintf("PUT t g b%d w%d", i, i))
	}
	lines := session(t, db, script...)
	_ = lines

	rows := func(lines []string) []string {
		var out []string
		for _, l := range lines {
			if strings.HasPrefix(l, "ROW ") {
				out = append(out, l)
			}
		}
		return out
	}

	// LIMIT + REVERSE: last 3 keys, descending.
	got := rows(session(t, db, "SCAN t g * * LIMIT 3 REVERSE"))
	if len(got) != 3 || !strings.HasPrefix(got[0], "ROW b9 ") || !strings.HasPrefix(got[2], "ROW b7 ") {
		t.Fatalf("LIMIT+REVERSE rows = %v", got)
	}

	// PREFIX narrows to the a-keys.
	got = rows(session(t, db, "SCAN t g * * PREFIX a LIMIT 100"))
	if len(got) != 10 || !strings.HasPrefix(got[0], "ROW a0 ") {
		t.Fatalf("PREFIX rows = %v", got)
	}

	// FILTER VAL CONTAINS.
	got = rows(session(t, db, "SCAN t g * * FILTER VAL CONTAINS w7"))
	if len(got) != 1 || !strings.HasPrefix(got[0], "ROW b7 ") {
		t.Fatalf("FILTER VAL rows = %v", got)
	}

	// FILTER KEY RANGE with open bound.
	got = rows(session(t, db, "SCAN t g * * FILTER KEY RANGE b8 *"))
	if len(got) != 2 || !strings.HasPrefix(got[0], "ROW b8 ") {
		t.Fatalf("FILTER KEY RANGE rows = %v", got)
	}

	// AT pins a historical snapshot: overwrite a0, read it back old.
	session(t, db, "PUT t g a0 fresh")
	got = rows(session(t, db, "SCAN t g a0 a1 AT 1"))
	if len(got) != 1 || got[0] != "ROW a0 1 v0" {
		t.Fatalf("AT rows = %v", got)
	}

	// Malformed operands produce ERR, not a hang.
	for _, bad := range []string{
		"SCAN t g * * LIMIT",
		"SCAN t g * * FILTER NOPE PREFIX x",
		"SCAN t g * * FILTER KEY BOGUS x",
		"SCAN t g * * WAT",
	} {
		ls := session(t, db, bad)
		if len(ls) != 1 || !strings.HasPrefix(ls[0], "ERR ") {
			t.Fatalf("%q replied %v, want ERR", bad, ls)
		}
	}
}

// TestStatsAndCompact covers the observability commands: STATS streams
// one STAT line per tablet server plus END, COMPACT acknowledges.
func TestStatsAndCompact(t *testing.T) {
	db := newFake()
	lines := session(t, db, "STATS", "COMPACT")
	if len(lines) != 3 {
		t.Fatalf("replies = %v", lines)
	}
	if !strings.HasPrefix(lines[0], "STAT fake ") {
		t.Fatalf("STATS line = %q", lines[0])
	}
	for _, want := range []string{"writes=7", "sorted_frac=0.500", "segments=2", "garbage_frac=0.000"} {
		if !strings.Contains(lines[0], want) {
			t.Fatalf("STATS line %q missing %q", lines[0], want)
		}
	}
	if lines[1] != "END 1" {
		t.Fatalf("STATS terminator = %q", lines[1])
	}
	if lines[2] != "OK compact" {
		t.Fatalf("COMPACT reply = %q", lines[2])
	}
}

func TestScrubCommand(t *testing.T) {
	db := newFake()
	db.scrubs = []core.ScrubReport{
		{Server: "ts00", Segments: 3, Blocks: 12, ReplicasRead: 36, RepairedBlocks: 1},
		{Server: "ts01", Segments: 2, Blocks: 8, ReplicasRead: 24,
			Unrecoverable: []core.ScrubDefect{{Segment: 4, Off: 128, Detail: "bad record crc"}}},
	}
	lines := session(t, db, "SCRUB")
	want := []string{
		"SCRUB ts00 segments=3 blocks=12 replicas_read=36 repaired=1 unrecoverable=0",
		"SCRUB ts01 segments=2 blocks=8 replicas_read=24 repaired=0 unrecoverable=1",
		"DEFECT ts01 segment 4 offset 128: bad record crc",
		"END repaired=1 unrecoverable=1",
	}
	if len(lines) != len(want) {
		t.Fatalf("SCRUB replies = %v", lines)
	}
	for i, w := range want {
		if lines[i] != w {
			t.Fatalf("SCRUB line %d = %q, want %q", i, lines[i], w)
		}
	}
}

func TestScrubCommandError(t *testing.T) {
	db := newFake()
	db.scrubErr = errors.New("dfs unavailable")
	lines := session(t, db, "SCRUB")
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "ERR ") {
		t.Fatalf("SCRUB error replies = %v", lines)
	}
}

// TestStatsMetricLines covers the expanded STATS command: a backend
// with a registry streams the whole registry as METRIC lines behind
// the STAT lines, and END counts every emitted line.
func TestStatsMetricLines(t *testing.T) {
	db := newFake()
	db.reg = obs.NewRegistry()
	db.reg.Counter("ops_total", "", obs.Labels{"server": "fake"}).Add(3)
	db.reg.GaugeFunc("frac", "", nil, func() float64 { return 0.25 })
	h := db.reg.Histogram("lat_seconds", "", nil)
	h.ObserveValue(1e9) // 1s in ns: scaled to seconds on the wire
	lines := session(t, db, "STATS")
	want := []string{
		"STAT fake ",
		`METRIC ops_total{server="fake"} 3`,
		"METRIC frac 0.25",
		"METRIC lat_seconds count=1 p50=1",
		"END 4",
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines %v, want %d", len(lines), lines, len(want))
	}
	for i, w := range want {
		if !strings.HasPrefix(lines[i], w) {
			t.Errorf("line %d = %q, want prefix %q", i, lines[i], w)
		}
	}
}

func TestParseStatLine(t *testing.T) {
	srv, kv, ok := ParseStatLine("STAT ts03 writes=12 sorted_frac=0.750 bogus garbage=x")
	if !ok || srv != "ts03" {
		t.Fatalf("ParseStatLine: ok=%v srv=%q", ok, srv)
	}
	if kv["writes"] != 12 || kv["sorted_frac"] != 0.75 {
		t.Errorf("kv = %v", kv)
	}
	if _, bad := kv["garbage"]; bad {
		t.Errorf("malformed pair kept: %v", kv)
	}
	if _, _, ok := ParseStatLine("METRIC x 1"); ok {
		t.Error("non-STAT line accepted")
	}
	if _, _, ok := ParseStatLine(""); ok {
		t.Error("empty line accepted")
	}
}

func TestWatchCommand(t *testing.T) {
	db := newFake()
	lines := session(t, db,
		"CREATE pages views",
		"PUT pages views /a 1",
		"PUT pages views /b 2",
		"DEL pages views /a",
		"WATCH pages views * *",
	)
	want := []string{
		"OK table pages",
		"OK", "OK", "OK",
		"EVENT PUT views /a 1 1 1 1",
		"EVENT PUT views /b 2 2 2 2",
		"EVENT DELETE views /a 2 3 3",
		"END 3",
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines %v, want %d", len(lines), lines, len(want))
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
}

func TestWatchFromAndLimit(t *testing.T) {
	db := newFake()
	setup := []string{
		"CREATE pages views",
		"PUT pages views /a 1",
		"PUT pages views /b 2",
		"DEL pages views /a",
	}

	// FROM resumes after a cursor: only events with cursor >= 2.
	lines := session(t, db, append(setup, "WATCH pages * * * FROM 2")...)
	tail := lines[len(setup):]
	want := []string{
		"EVENT PUT views /b 2 2 2 2",
		"EVENT DELETE views /a 2 3 3",
		"END 2",
	}
	if len(tail) != len(want) {
		t.Fatalf("FROM 2: got %v, want %v", tail, want)
	}
	for i := range want {
		if tail[i] != want[i] {
			t.Errorf("FROM 2 line %d = %q, want %q", i, tail[i], want[i])
		}
	}

	// LIMIT bounds the stream.
	lines = session(t, newFakeFrom(t, setup), "WATCH pages * * * LIMIT 1")
	if len(lines) != 2 || lines[0] != "EVENT PUT views /a 1 1 1 1" || lines[1] != "END 1" {
		t.Errorf("LIMIT 1: got %v", lines)
	}

	// Key-range filter.
	lines = session(t, newFakeFrom(t, setup), "WATCH pages * /b *")
	if len(lines) != 2 || lines[0] != "EVENT PUT views /b 2 2 2 2" || lines[1] != "END 1" {
		t.Errorf("range [/b, nil): got %v", lines)
	}

	// Malformed operand and unknown table are ERRs, not stream output.
	lines = session(t, newFakeFrom(t, setup), "WATCH pages * * * FROM x")
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "ERR ") {
		t.Errorf("bad FROM: got %v", lines)
	}
	lines = session(t, newFakeFrom(t, setup), "WATCH nosuch * * *")
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "ERR ") {
		t.Errorf("unknown table: got %v", lines)
	}
}

// newFakeFrom builds a fresh fake store pre-loaded via a script.
func newFakeFrom(t *testing.T, script []string) *fakeStore {
	t.Helper()
	db := newFake()
	session(t, db, script...)
	return db
}

func TestMViewCommands(t *testing.T) {
	db := newFake()
	lines := session(t, db,
		"CREATE pages views",
		"PUT pages views /a/x 1",
		"PUT pages views /a/y 2",
		"PUT pages views /b/z 3",
		"MVIEW CREATE pv pages views COUNT,SUM * * BY 2",
		"MVIEW QUERY pv",
		"MVIEW STATS pv",
	)
	want := []string{
		"OK table pages",
		"OK", "OK", "OK",
		"OK view pv",
		"AGG /a COUNT 2 rows=2",
		"AGG /a SUM 3 rows=2",
		"AGG /b COUNT 1 rows=1",
		"AGG /b SUM 3 rows=1",
		"END 2 3",
		"STAT pv watermark_lsn=3 watermark_ts=3 events=3 snapshot_rows=0 skipped=0 groups=1 keys=1",
		"END 1",
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines %v, want %d", len(lines), lines, len(want))
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}

	// Duplicate name, unknown view, malformed subcommand.
	lines = session(t, db, "MVIEW CREATE pv pages views COUNT")
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "ERR ") {
		t.Errorf("duplicate view: got %v", lines)
	}
	lines = session(t, db, "MVIEW QUERY nada")
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "ERR ") {
		t.Errorf("unknown view: got %v", lines)
	}
	lines = session(t, db, "MVIEW BOGUS pv")
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "ERR ") {
		t.Errorf("bad subcommand: got %v", lines)
	}
}

// TestStatsReplicaLines covers the replication half of STATS: each
// replica rides behind its primary's STAT line as one "STAT <replica>
// replica_*" line that ParseStatLine (and thereby the CLI's watch mode)
// decodes like any other.
func TestStatsReplicaLines(t *testing.T) {
	db := newFake()
	db.replicas = []repl.Stats{{
		BaseID: "fake.r0", Generation: 1, AppliedLSN: 90, SourceLSN: 100,
		LagRecords: 10, LagSeconds: 0.5, WatermarkTS: 42, ReadsServed: 7,
	}}
	lines := session(t, db, "STATS")
	if len(lines) != 3 {
		t.Fatalf("replies = %v", lines)
	}
	if !strings.HasPrefix(lines[1], "STAT fake.r0 ") {
		t.Fatalf("replica line = %q", lines[1])
	}
	srv, kv, ok := ParseStatLine(lines[1])
	if !ok || srv != "fake.r0" {
		t.Fatalf("ParseStatLine(%q) = %q, %v", lines[1], srv, ok)
	}
	for k, want := range map[string]float64{
		"replica_generation": 1, "replica_applied_lsn": 90, "replica_source_lsn": 100,
		"replica_lag_records": 10, "replica_lag_seconds": 0.5,
		"replica_watermark_ts": 42, "replica_reads_served": 7,
	} {
		if kv[k] != want {
			t.Errorf("%s = %v, want %v", k, kv[k], want)
		}
	}
	if lines[2] != "END 2" {
		t.Fatalf("terminator = %q (replica line not counted?)", lines[2])
	}
}

// TestScanReplicaOptions covers the PRIMARY and MAXLAG scan operands:
// they decode onto the readopt routing fields and reject malformed
// values like every other option.
func TestScanReplicaOptions(t *testing.T) {
	opt, msg := parseScanOptions([]string{"AT", "5", "PRIMARY"})
	if msg != "" || !opt.Primary || opt.Snapshot != 5 {
		t.Fatalf("PRIMARY parse = %+v, %q", opt, msg)
	}
	opt, msg = parseScanOptions([]string{"MAXLAG", "64", "LIMIT", "3"})
	if msg != "" || opt.MaxLag != 64 || opt.Limit != 3 {
		t.Fatalf("MAXLAG parse = %+v, %q", opt, msg)
	}
	for _, bad := range [][]string{{"MAXLAG"}, {"MAXLAG", "x"}, {"MAXLAG", "0"}} {
		if _, msg := parseScanOptions(bad); msg == "" {
			t.Fatalf("parseScanOptions(%v) accepted, want error", bad)
		}
	}
	// And on the wire: a replicated-options scan still answers (the fake
	// has no replicas; the options must be harmless pass-through).
	db := newFake()
	lines := session(t, db, "CREATE t g", "PUT t g k v", "SCAN t g * * PRIMARY MAXLAG 8")
	last := lines[len(lines)-2]
	if !strings.HasPrefix(last, "ROW k ") {
		t.Fatalf("replicated-option scan rows = %v", lines)
	}
	if ls := session(t, db, "SCAN t g * * MAXLAG"); len(ls) != 1 || !strings.HasPrefix(ls[0], "ERR ") {
		t.Fatalf("bare MAXLAG replied %v, want ERR", ls)
	}
}
