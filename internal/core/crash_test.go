package core

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"sync"
	"testing"

	"repro/internal/dfs"
	"repro/internal/fault"
	"repro/internal/partition"
	"repro/internal/wal"
)

// ---- crash-point recovery harness ---------------------------------------
//
// Each case arms ONE crash point, runs a scripted workload until the
// injected "crash" fires (the op returns a fault.ErrCrash-wrapped
// error; the in-memory server is then abandoned WITHOUT Close, exactly
// like a killed process — injected disk state stays), reopens a fresh
// server over the same DFS, recovers, and verifies the survivor state
// against an oracle of acknowledged operations:
//
//   - every acknowledged write is present with its exact value,
//   - every acknowledged delete stays deleted (nothing resurrects),
//   - the op in flight at the crash is either fully absent or fully
//     applied (durable-but-unacknowledged is legal; half-applied is
//     not).

// oracle is the acknowledged state: key -> (ts, value), deleted keys
// removed.
type oracle map[string]Row

func (o oracle) put(key string, ts int64, val string) {
	o[key] = Row{Key: []byte(key), TS: ts, Value: []byte(val)}
}

func (o oracle) del(key string) { delete(o, key) }

// crashEnv is one harnessed server lifetime over a shared DFS.
type crashEnv struct {
	t   *testing.T
	fs  *dfs.DFS
	reg *fault.Registry
	srv *Server
}

func newCrashEnv(t *testing.T, seed int64) *crashEnv {
	t.Helper()
	fs, err := dfs.New(t.TempDir(), dfs.Config{NumDataNodes: 3, BlockSize: 1 << 16})
	if err != nil {
		t.Fatalf("dfs.New: %v", err)
	}
	e := &crashEnv{t: t, fs: fs, reg: fault.New(seed)}
	e.srv = e.open()
	return e
}

func (e *crashEnv) config() Config {
	return Config{SegmentSize: 1 << 20, Faults: e.reg}
}

func (e *crashEnv) open() *Server {
	e.t.Helper()
	s, err := NewServer(e.fs, "ts-crash", e.config())
	if err != nil {
		e.t.Fatalf("NewServer: %v", err)
	}
	s.AddTablet(partition.Tablet{ID: testTablet, Table: "users"}, []string{testGroup, "activity"})
	return s
}

// crashAndRecover abandons the current server (simulated kill: no
// Close, no flush) and reopens + recovers over the same DFS.
func (e *crashEnv) crashAndRecover() *Server {
	e.t.Helper()
	e.reg.Reset() // the dead process's armed faults die with it
	s := e.open()
	if _, err := s.Recover(); err != nil {
		e.t.Fatalf("Recover after crash: %v", err)
	}
	e.srv = s
	return s
}

// verifyOracle checks the recovered server against the acknowledged
// state. maybe lists keys whose mutation was in flight at the crash:
// for a write, the key may also hold exactly the attempted row; for a
// delete, the key may also be absent.
func verifyOracle(t *testing.T, s *Server, o oracle, maybe map[string]*Row) {
	t.Helper()
	for k, want := range o {
		if _, inflight := maybe[k]; inflight {
			continue
		}
		row, err := s.Get(testTablet, testGroup, []byte(k))
		if err != nil {
			t.Fatalf("acknowledged key %q lost after recovery: %v", k, err)
		}
		if row.TS != want.TS || !bytes.Equal(row.Value, want.Value) {
			t.Fatalf("key %q = (%d, %q) after recovery, want (%d, %q)",
				k, row.TS, row.Value, want.TS, want.Value)
		}
	}
	for k, attempted := range maybe {
		row, err := s.Get(testTablet, testGroup, []byte(k))
		switch {
		case err == nil && attempted != nil &&
			row.TS == attempted.TS && bytes.Equal(row.Value, attempted.Value):
			// fully applied — legal
		case err == nil && attempted == nil:
			// in-flight DELETE not applied: the pre-delete row must be the
			// acknowledged one
			want, ok := o[k]
			if !ok || row.TS != want.TS || !bytes.Equal(row.Value, want.Value) {
				t.Fatalf("in-flight delete of %q left foreign row (%d, %q)", k, row.TS, row.Value)
			}
		case err != nil && attempted != nil:
			// in-flight write absent: the key must have had no
			// acknowledged row
			if want, ok := o[k]; ok {
				t.Fatalf("key %q lost acknowledged row (%d, %q) to an in-flight write",
					k, want.TS, want.Value)
			}
		case err != nil && attempted == nil:
			// in-flight delete applied — legal
		default:
			t.Fatalf("key %q in half-applied state after recovery: row=%v err=%v", k, row, err)
		}
	}
	// Nothing beyond the oracle + in-flight keys may exist.
	seen := map[string]bool{}
	err := s.Scan(nil, testTablet, testGroup, nil, nil, maxTS, func(r Row) bool {
		seen[string(r.Key)] = true
		return true
	})
	if err != nil {
		t.Fatalf("Scan after recovery: %v", err)
	}
	for k := range seen {
		if _, ok := o[k]; ok {
			continue
		}
		if _, ok := maybe[k]; ok {
			continue
		}
		t.Fatalf("key %q resurrected from nowhere after recovery", k)
	}
}

// seedRows acknowledges n writes and returns the oracle.
func seedRows(t *testing.T, s *Server, o oracle, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k%03d", i)
		v := fmt.Sprintf("v%03d", i)
		if err := s.Write(testTablet, testGroup, []byte(k), int64(i+1), []byte(v)); err != nil {
			t.Fatalf("seed Write %s: %v", k, err)
		}
		o.put(k, int64(i+1), v)
	}
}

func TestCrashPutPreIndex(t *testing.T) {
	e := newCrashEnv(t, 101)
	o := oracle{}
	seedRows(t, e.srv, o, 20)

	e.reg.Arm("crash.put.pre-index", fault.Policy{Times: 1, Crash: true})
	err := e.srv.Write(testTablet, testGroup, []byte("inflight"), 99, []byte("vX"))
	if !fault.Crashed(err) {
		t.Fatalf("armed put err = %v, want crash", err)
	}
	s := e.crashAndRecover()
	verifyOracle(t, s, o, map[string]*Row{
		"inflight": {Key: []byte("inflight"), TS: 99, Value: []byte("vX")},
	})
	// The record was durable before the crash point: redo must surface it.
	if _, err := s.Get(testTablet, testGroup, []byte("inflight")); err != nil {
		t.Fatalf("durable in-flight write not redone: %v", err)
	}
}

func TestCrashDeletePreIndex(t *testing.T) {
	e := newCrashEnv(t, 102)
	o := oracle{}
	seedRows(t, e.srv, o, 10)
	// An acknowledged delete that must stay deleted.
	if err := e.srv.Delete(testTablet, testGroup, []byte("k003"), 50); err != nil {
		t.Fatalf("acked Delete: %v", err)
	}
	o.del("k003")

	e.reg.Arm("crash.delete.pre-index", fault.Policy{Times: 1, Crash: true})
	err := e.srv.Delete(testTablet, testGroup, []byte("k005"), 60)
	if !fault.Crashed(err) {
		t.Fatalf("armed delete err = %v, want crash", err)
	}
	s := e.crashAndRecover()
	verifyOracle(t, s, o, map[string]*Row{"k005": nil})
	if _, err := s.Get(testTablet, testGroup, []byte("k003")); err == nil {
		t.Fatal("acknowledged delete resurrected by recovery")
	}
	// Tombstone was durable: the in-flight delete must have applied.
	if _, err := s.Get(testTablet, testGroup, []byte("k005")); err == nil {
		t.Fatal("durable tombstone ignored by recovery")
	}
}

// A write that arrives after a delete, under an older timestamp, is
// installed, acknowledged and readable. Every replay of the log must end
// in the state the running server had: restart redo, migration, and both
// after incremental compaction has moved the tombstones above the writes
// that followed them, and after the whole-log rewrite.
func TestCrashLateWriteAfterDelete(t *testing.T) {
	e := newCrashEnv(t, 11)
	script := []struct {
		key string
		ts  int64
		del bool
	}{
		{"late", 5, false}, {"late", 20, true}, {"late", 10, false}, // 10 came after the delete: it stays
		{"pair", 12, false}, {"pair", 20, true}, {"pair", 17, false}, {"pair", 15, true}, // 17 outlives both
		{"gone", 20, true}, {"gone", 12, false}, {"gone", 15, true}, // the later, older tombstone removes 12
		{"tie", 9, false}, {"tie", 9, true}, {"tie", 9, false}, // equal timestamps: arrival decides
	}
	// One record per segment, so compaction can move any of them.
	var tombstoneSegs []uint32
	for i, st := range script {
		var err error
		if st.del {
			err = e.srv.Delete(testTablet, testGroup, []byte(st.key), st.ts)
			tombstoneSegs = append(tombstoneSegs, e.srv.Log().ActiveSegment())
		} else {
			err = e.srv.Write(testTablet, testGroup, []byte(st.key), st.ts, fmt.Appendf(nil, "%s#%d", st.key, i))
		}
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		e.srv.Log().Rotate()
	}
	view := func(s *Server) map[string]string {
		t.Helper()
		out := map[string]string{}
		for _, st := range script {
			rows, err := versionsOf(s, []byte(st.key))
			if err != nil {
				t.Fatal(err)
			}
			out[st.key] = fmt.Sprint(rows)
		}
		return out
	}
	live := view(e.srv)
	want := map[string]string{"late": "late#2", "pair": "pair#5", "tie": "tie#12"}
	for key, val := range want {
		if row, err := e.srv.Get(testTablet, testGroup, []byte(key)); err != nil || string(row.Value) != val {
			t.Fatalf("live Get(%s) = %q, %v; want %q", key, row.Value, err, val)
		}
	}
	check := func(what string, s *Server) {
		t.Helper()
		if got := view(s); !maps.Equal(got, live) {
			t.Fatalf("%s:\n got  %v\n want %v", what, got, live)
		}
	}
	migrate := func(what string, src *Server) {
		t.Helper()
		dst := mustServer(t, e.fs, "ts-"+what, Config{})
		rs, err := dst.NewReplaySession(src.Log(), wal.Position{}, []partition.Tablet{{ID: testTablet, Table: "users"}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rs.CatchUp(); err != nil {
			t.Fatal(err)
		}
		check("CatchUp "+what, dst)
	}

	check("Recover", e.crashAndRecover())
	migrate("plain", e.srv)

	if _, err := e.srv.CompactSegments(tombstoneSegs); err != nil {
		t.Fatal(err)
	}
	segs := e.srv.Log().Segments()
	if last := segs[len(segs)-1].Num; last <= slices.Max(tombstoneSegs) {
		t.Fatalf("tombstones not relocated above the writes (last segment %d)", last)
	}
	check("CompactSegments", e.srv)
	check("Recover after CompactSegments", e.crashAndRecover())
	migrate("relocated", e.srv)

	if _, err := e.srv.Compact(); err != nil {
		t.Fatal(err)
	}
	check("Compact", e.srv)
	check("Recover after Compact", e.crashAndRecover())
	migrate("compacted", e.srv)
}

func TestCrashTxnPreIndex(t *testing.T) {
	e := newCrashEnv(t, 103)
	o := oracle{}
	seedRows(t, e.srv, o, 5)

	e.reg.Arm("crash.txn.pre-index", fault.Policy{Times: 1, Crash: true})
	err := e.srv.ApplyTxn(7, 77, []TxnWrite{
		{Tablet: testTablet, Group: testGroup, Key: []byte("ta"), Value: []byte("va")},
		{Tablet: testTablet, Group: testGroup, Key: []byte("tb"), Value: []byte("vb")},
		{Tablet: testTablet, Group: testGroup, Key: []byte("tc"), Value: []byte("vc")},
	})
	if !fault.Crashed(err) {
		t.Fatalf("armed txn err = %v, want crash", err)
	}
	s := e.crashAndRecover()
	// Commit record was durable: atomicity demands all three appear.
	present := 0
	for _, k := range []string{"ta", "tb", "tc"} {
		if _, err := s.Get(testTablet, testGroup, []byte(k)); err == nil {
			present++
		}
	}
	if present != 0 && present != 3 {
		t.Fatalf("transaction half-applied after crash recovery: %d/3 keys", present)
	}
	if present != 3 {
		t.Fatal("committed (durable commit record) transaction lost by recovery")
	}
	verifyOracle(t, s, o, map[string]*Row{
		"ta": {TS: 77, Value: []byte("va"), Key: []byte("ta")},
		"tb": {TS: 77, Value: []byte("vb"), Key: []byte("tb")},
		"tc": {TS: 77, Value: []byte("vc"), Key: []byte("tc")},
	})
}

func TestCrashBatchPreIndex(t *testing.T) {
	e := newCrashEnv(t, 104)
	o := oracle{}
	seedRows(t, e.srv, o, 5)

	e.reg.Arm("crash.batch.pre-index", fault.Policy{Times: 1, Crash: true})
	err := e.srv.ApplyBatch([]BatchWrite{
		{Tablet: testTablet, Group: testGroup, Key: []byte("ba"), TS: 80, Value: []byte("va")},
		{Tablet: testTablet, Group: testGroup, Key: []byte("bb"), TS: 81, Value: []byte("vb")},
	})
	if !fault.Crashed(err) {
		t.Fatalf("armed batch err = %v, want crash", err)
	}
	s := e.crashAndRecover()
	verifyOracle(t, s, o, map[string]*Row{
		"ba": {TS: 80, Value: []byte("va"), Key: []byte("ba")},
		"bb": {TS: 81, Value: []byte("vb"), Key: []byte("bb")},
	})
}

func TestCrash2PCPostPrepare(t *testing.T) {
	e := newCrashEnv(t, 105)
	o := oracle{}
	seedRows(t, e.srv, o, 5)

	e.reg.Arm("crash.2pc.post-prepare", fault.Policy{Times: 1, Crash: true})
	_, err := e.srv.PrepareTxn(41, 90, []TxnWrite{
		{Tablet: testTablet, Group: testGroup, Key: []byte("prep"), Value: []byte("vp")},
	})
	if !fault.Crashed(err) {
		t.Fatalf("armed prepare err = %v, want crash", err)
	}
	s := e.crashAndRecover()
	// No commit record exists: the prepared write must stay invisible.
	if _, err := s.Get(testTablet, testGroup, []byte("prep")); err == nil {
		t.Fatal("uncommitted prepared write visible after recovery")
	}
	verifyOracle(t, s, o, nil)
}

func TestCrash2PCPostCommitAppend(t *testing.T) {
	e := newCrashEnv(t, 106)
	o := oracle{}
	seedRows(t, e.srv, o, 5)

	p, err := e.srv.PrepareTxn(42, 91, []TxnWrite{
		{Tablet: testTablet, Group: testGroup, Key: []byte("c2"), Value: []byte("vc")},
	})
	if err != nil {
		t.Fatalf("PrepareTxn: %v", err)
	}
	e.reg.Arm("crash.2pc.post-commit-append", fault.Policy{Times: 1, Crash: true})
	if err := e.srv.CommitTxn(42, 91, p); !fault.Crashed(err) {
		t.Fatalf("armed commit err = %v, want crash", err)
	}
	s := e.crashAndRecover()
	// The commit record IS durable: recovery must make the txn visible.
	row, err := s.Get(testTablet, testGroup, []byte("c2"))
	if err != nil {
		t.Fatalf("committed 2PC write lost after crash between commit append and install: %v", err)
	}
	if row.TS != 91 || string(row.Value) != "vc" {
		t.Fatalf("2PC row = (%d, %q), want (91, vc)", row.TS, row.Value)
	}
	verifyOracle(t, s, o, map[string]*Row{"c2": {TS: 91, Value: []byte("vc"), Key: []byte("c2")}})
}

// A prepared transaction whose commit lands while whole-log compaction
// is still reading its input: the commit record is in the tail and the
// registration is gone by the time compaction decides what to carry.
// The prepared records must be carried all the same.
func TestCompactKeepsTxnCommittedMidCollect(t *testing.T) {
	reg := fault.New(113)
	fs, err := dfs.New(t.TempDir(), dfs.Config{NumDataNodes: 3, BlockSize: 1 << 16, Faults: reg})
	if err != nil {
		t.Fatalf("dfs.New: %v", err)
	}
	e := &crashEnv{t: t, fs: fs, reg: reg}
	e.srv = e.open()
	o := oracle{}
	seedRows(t, e.srv, o, 20)
	p, err := e.srv.PrepareTxn(77, 95, []TxnWrite{
		{Tablet: testTablet, Group: testGroup, Key: []byte("mid"), Value: []byte("vm")},
	})
	if err != nil {
		t.Fatalf("PrepareTxn: %v", err)
	}
	// The first block read after this point is compaction's collect
	// round opening the frozen input.
	var once sync.Once
	commit := fault.Policy{OnFire: func() {
		once.Do(func() {
			if err := e.srv.CommitTxn(77, 95, p); err != nil {
				t.Errorf("CommitTxn: %v", err)
			}
		})
	}}
	for i := 0; i < 3; i++ {
		reg.Arm(fmt.Sprintf("dfs.dn%d.read", i), commit)
	}
	if _, err := e.srv.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	reg.Reset()
	o.put("mid", 95, "vm")
	verifyOracle(t, e.srv, o, nil)
	verifyOracle(t, e.crashAndRecover(), o, nil)
}

func TestCrashCheckpointPreInstall(t *testing.T) {
	e := newCrashEnv(t, 107)
	o := oracle{}
	seedRows(t, e.srv, o, 10)
	if err := e.srv.Checkpoint(); err != nil {
		t.Fatalf("baseline Checkpoint: %v", err)
	}
	// Fresh keys past the checkpoint: recovery must redo them from the
	// log tail whichever manifest it lands on.
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("post%02d", i)
		if err := e.srv.Write(testTablet, testGroup, []byte(k), int64(200+i), []byte("pv")); err != nil {
			t.Fatalf("post-checkpoint Write: %v", err)
		}
		o.put(k, int64(200+i), "pv")
	}

	e.reg.Arm("crash.checkpoint.pre-install", fault.Policy{Times: 1, Crash: true})
	if err := e.srv.Checkpoint(); !fault.Crashed(err) {
		t.Fatalf("armed checkpoint err = %v, want crash", err)
	}
	s := e.crashAndRecover()
	// Recovery fell back to the previous manifest (or full scan); the
	// half-written checkpoint must not have eaten anything.
	verifyOracle(t, s, o, nil)
}

func TestCrashCompactPreInstall(t *testing.T) {
	testCrashCompact(t, "crash.compact.pre-install", 108)
}

func TestCrashCompactPreRemove(t *testing.T) {
	testCrashCompact(t, "crash.compact.pre-remove", 109)
}

func testCrashCompact(t *testing.T, point string, seed int64) {
	e := newCrashEnv(t, seed)
	o := oracle{}
	seedRows(t, e.srv, o, 20)
	// Overwrites and deletes give the compactor real garbage, and give
	// recovery real chances to resurrect or lose.
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("k%03d", i)
		v := fmt.Sprintf("w%03d", i)
		if err := e.srv.Write(testTablet, testGroup, []byte(k), int64(100+i), []byte(v)); err != nil {
			t.Fatalf("overwrite %s: %v", k, err)
		}
		o.put(k, int64(100+i), v)
	}
	for _, k := range []string{"k015", "k016"} {
		if err := e.srv.Delete(testTablet, testGroup, []byte(k), 150); err != nil {
			t.Fatalf("Delete %s: %v", k, err)
		}
		o.del(k)
	}

	e.reg.Arm(point, fault.Policy{Times: 1, Crash: true})
	if _, err := e.srv.Compact(); !fault.Crashed(err) {
		t.Fatalf("armed compact err = %v, want crash", err)
	}
	s := e.crashAndRecover()
	// Whatever mix of input and output segments survived, recovery must
	// reproduce exactly the acknowledged state: no loss, no half-
	// compacted duplicates visible, no resurrected deletes.
	verifyOracle(t, s, o, nil)
	for _, k := range []string{"k015", "k016"} {
		if _, err := s.Get(testTablet, testGroup, []byte(k)); err == nil {
			t.Fatalf("deleted key %s resurrected after %s crash", k, point)
		}
	}
	// The recovered server must remain fully operational: a follow-up
	// compaction converges the layout.
	if _, err := s.Compact(); err != nil {
		t.Fatalf("Compact after crash recovery: %v", err)
	}
	verifyOracle(t, s, o, nil)
}

// The whole sweep again, through every point in one scripted life with
// a crash at each stage — closer to the paper's "recovery is idempotent"
// claim: crash, recover, keep working, crash elsewhere, recover...
func TestCrashPointSweepSequential(t *testing.T) {
	e := newCrashEnv(t, 110)
	o := oracle{}
	seedRows(t, e.srv, o, 10)

	points := []struct {
		point string
		op    func(s *Server) error
	}{
		{"crash.put.pre-index", func(s *Server) error {
			return s.Write(testTablet, testGroup, []byte("sw1"), 301, []byte("x1"))
		}},
		{"crash.delete.pre-index", func(s *Server) error {
			return s.Delete(testTablet, testGroup, []byte("k001"), 302)
		}},
		{"crash.batch.pre-index", func(s *Server) error {
			return s.ApplyBatch([]BatchWrite{{Tablet: testTablet, Group: testGroup,
				Key: []byte("sw2"), TS: 303, Value: []byte("x2")}})
		}},
		{"crash.checkpoint.pre-install", func(s *Server) error { return s.Checkpoint() }},
		{"crash.compact.pre-install", func(s *Server) error { _, err := s.Compact(); return err }},
	}
	for _, p := range points {
		e.reg.Arm(p.point, fault.Policy{Times: 1, Crash: true})
		if err := p.op(e.srv); !fault.Crashed(err) {
			t.Fatalf("%s: err = %v, want crash", p.point, err)
		}
		s := e.crashAndRecover()
		// Durable mutations surface deterministically; fold them into the
		// oracle by observing the recovered state once and holding every
		// later recovery to it.
		for _, k := range []string{"sw1", "sw2"} {
			if row, err := s.Get(testTablet, testGroup, []byte(k)); err == nil {
				o[k] = row
			}
		}
		if _, err := s.Get(testTablet, testGroup, []byte("k001")); err != nil {
			o.del("k001")
		}
		verifyOracle(t, s, o, nil)
	}
}
