package core

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"testing"
	"time"

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
	t       *testing.T
	fs      *dfs.DFS
	reg     *fault.Registry
	srv     *Server
	segSize int64 // log segment size; zero means 1 MB
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
	return Config{SegmentSize: cmp.Or(e.segSize, 1<<20), Faults: e.reg}
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
	err := serialScan(nil, s, testTablet, testGroup, nil, nil, maxTS, func(r Row) bool {
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

// scriptStep is one auto-commit write or delete of a scripted history.
type scriptStep struct {
	key string
	ts  int64
	del bool
}

type script []scriptStep

// lateWriteScript has writes that arrive after a delete under an older
// timestamp, in every order that tells the delete rules apart.
var lateWriteScript = script{
	{"late", 5, false}, {"late", 20, true}, {"late", 10, false}, // 10 came after the delete: it stays
	{"pair", 12, false}, {"pair", 20, true}, {"pair", 17, false}, {"pair", 15, true}, // 17 outlives both
	{"gone", 20, true}, {"gone", 12, false}, {"gone", 15, true}, // the later, older tombstone removes 12
	{"tie", 9, false}, {"tie", 9, true}, {"tie", 9, false}, // equal timestamps: arrival decides
}

// run applies the script with one record per segment, so compaction can
// move any of them, and returns the segments that hold a tombstone.
func (sc script) run(t *testing.T, s *Server) (tombstoneSegs []uint32) {
	t.Helper()
	for i, st := range sc {
		var err error
		if st.del {
			err = s.Delete(testTablet, testGroup, []byte(st.key), st.ts)
			tombstoneSegs = append(tombstoneSegs, s.Log().ActiveSegment())
		} else {
			err = s.Write(testTablet, testGroup, []byte(st.key), st.ts, fmt.Appendf(nil, "%s#%d", st.key, i))
		}
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		s.Log().Rotate()
	}
	return tombstoneSegs
}

// view renders every stored version of every key the script touches.
func (sc script) view(t *testing.T, s *Server) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, st := range sc {
		rows, err := versionsOf(s, []byte(st.key))
		if err != nil {
			t.Fatal(err)
		}
		out[st.key] = fmt.Sprint(rows)
	}
	return out
}

// compactEntries are the ways into the compaction engine. Each seals the
// active segment first, so all three hand the engine the whole log.
var compactEntries = []struct {
	name string
	run  func(s *Server) error
}{
	{"Compact", func(s *Server) error { _, err := s.Compact(); return err }},
	{"CompactSegments", func(s *Server) error {
		s.Log().Rotate()
		var nums []uint32
		for _, si := range s.Log().Segments() {
			nums = append(nums, si.Num)
		}
		_, err := s.CompactSegments(nums)
		return err
	}},
	{"AutoCompactTick", func(s *Server) error {
		s.Log().Rotate()
		_, ran, err := s.AutoCompactTick()
		if err == nil && !ran {
			err = errors.New("tick found nothing to compact")
		}
		return err
	}},
}

// A write that arrives after a delete, under an older timestamp, is
// installed, acknowledged and readable. Every replay of the log must end
// in the state the running server had: restart redo, migration, and both
// after incremental compaction has moved the tombstones above the writes
// that followed them, and after the whole-log rewrite.
func TestCrashLateWriteAfterDelete(t *testing.T) {
	e := newCrashEnv(t, 11)
	tombstoneSegs := lateWriteScript.run(t, e.srv)
	view := func(s *Server) map[string]string { return lateWriteScript.view(t, s) }
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

// A checkpoint taken while an incremental compaction writes its output
// loses nothing. The output is numbered below a segment opened after it,
// so a checkpoint positioned in that segment would have redo skip the
// output, while its entries, still pointing at the inputs, are pruned
// once the inputs go. Checkpoint waits for the compaction instead.
func TestCheckpointDuringCompactionKeepsRows(t *testing.T) {
	e := newCrashEnv(t, 116)
	o := oracle{}
	seedRows(t, e.srv, o, 50)
	e.srv.Log().Rotate()
	var nums []uint32
	for _, si := range e.srv.Log().Segments() {
		nums = append(nums, si.Num)
	}
	done := make(chan error, 1)
	e.reg.Arm("crash.compact.pre-install", fault.Policy{Times: 1, OnFire: func() {
		e.srv.Log().Rotate()
		if err := e.srv.Write(testTablet, testGroup, []byte("mid"), 99, []byte("vm")); err != nil {
			t.Errorf("Write mid-compaction: %v", err)
		}
		o.put("mid", 99, "vm")
		go func() { done <- e.srv.Checkpoint() }()
		// A checkpoint that does not wait for the compaction finishes well
		// inside this bound; one that waits is still waiting when it ends.
		select {
		case err := <-done:
			done <- err
		case <-time.After(200 * time.Millisecond):
		}
	}})
	if _, err := e.srv.CompactSegments(nums); err != nil {
		t.Fatalf("CompactSegments: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	verifyOracle(t, e.crashAndRecover(), o, nil)
}

func TestCrashCompactPreInstall(t *testing.T) {
	testCrashCompact(t, "crash.compact.pre-install", 108)
}

func TestCrashCompactPreRemove(t *testing.T) {
	testCrashCompact(t, "crash.compact.pre-remove", 109)
}

// testCrashCompact crashes at one of the engine's points through each
// way into the engine.
func testCrashCompact(t *testing.T, point string, seed int64) {
	for _, entry := range compactEntries {
		t.Run(entry.name, func(t *testing.T) { testCrashCompactVia(t, point, seed, entry.run) })
	}
}

func testCrashCompactVia(t *testing.T, point string, seed int64, compact func(*Server) error) {
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
	if err := compact(e.srv); !fault.Crashed(err) {
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
	// compaction converges the layout, and a second recovery over what it
	// left changes nothing.
	if err := compact(s); err != nil {
		t.Fatalf("compaction after crash recovery: %v", err)
	}
	verifyOracle(t, s, o, nil)
	verifyOracle(t, e.crashAndRecover(), o, nil)
}

// Incremental compaction writes its sorted output above the segment
// still open for append. A crash that tears an append there must be
// repaired on restart like any torn tail: the acknowledged rows and the
// compacted ones all come back, and the torn write is in flight.
func TestCrashTornAppendAboveIncrementalCompaction(t *testing.T) {
	e := newCrashEnv(t, 112)
	o := oracle{}
	seedRows(t, e.srv, o, 20)
	e.srv.Log().Rotate()
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("k%03d", i)
		v := fmt.Sprintf("w%03d", i)
		if err := e.srv.Write(testTablet, testGroup, []byte(k), int64(100+i), []byte(v)); err != nil {
			t.Fatalf("overwrite %s: %v", k, err)
		}
		o.put(k, int64(100+i), v)
	}
	if _, err := e.srv.CompactSegments([]uint32{1}); err != nil {
		t.Fatalf("CompactSegments: %v", err)
	}

	e.reg.Arm("wal.append", fault.Policy{Times: 1, Partial: 0.5, Crash: true})
	err := e.srv.Write(testTablet, testGroup, []byte("torn"), 200, []byte("vT"))
	if !fault.Crashed(err) {
		t.Fatalf("torn append err = %v, want crash", err)
	}
	s := e.crashAndRecover()
	verifyOracle(t, s, o, map[string]*Row{
		"torn": {Key: []byte("torn"), TS: 200, Value: []byte("vT")},
	})
	// The repaired segment is sealed now: a second restart reads it clean.
	verifyOracle(t, e.crashAndRecover(), o, map[string]*Row{
		"torn": {Key: []byte("torn"), TS: 200, Value: []byte("vT")},
	})
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
	}
	// The engine's points through every way in, each over the doubled log
	// the crash before it left behind; then one between two removals,
	// which recovery finishes.
	type pointOp = struct {
		point string
		op    func(s *Server) error
	}
	for _, point := range []string{"crash.compact.pre-install", "crash.compact.pre-remove"} {
		for _, entry := range compactEntries {
			points = append(points, pointOp{point, entry.run})
		}
	}
	points = append(points, pointOp{"crash.compact.mid-remove", compactEntries[0].run})
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

// A SplitTablet that lands while compaction writes its output: the
// children's indexes still point into the input, and compaction must
// redirect them, not replace them.
func TestSplitDuringCompactKeepsRows(t *testing.T) {
	for _, entry := range compactEntries[:2] {
		t.Run(entry.name, func(t *testing.T) {
			reg := fault.New(114)
			fs, err := dfs.New(t.TempDir(), dfs.Config{NumDataNodes: 3, BlockSize: 1 << 16, Faults: reg})
			if err != nil {
				t.Fatalf("dfs.New: %v", err)
			}
			open := func(tablets ...partition.Tablet) *Server {
				s, err := NewServer(fs, "ts-crash", Config{SegmentSize: 1 << 20, Faults: reg})
				if err != nil {
					t.Fatalf("NewServer: %v", err)
				}
				for _, tab := range tablets {
					s.AddTablet(tab, []string{testGroup})
				}
				return s
			}
			spec := elasticTablet()
			s := open(spec)
			const n = 20
			for i := 0; i < n; i++ {
				if err := s.Write(spec.ID, testGroup, ek(i), int64(i+1), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			lr, rr, err := spec.Range.Split(ek(n / 2))
			if err != nil {
				t.Fatal(err)
			}
			left := partition.Tablet{ID: "users/0001", Table: "users", Range: lr}
			right := partition.Tablet{ID: "users/0002", Table: "users", Range: rr}
			// The first DFS write after the seed is compaction's output.
			var once sync.Once
			split := fault.Policy{OnFire: func() {
				once.Do(func() {
					if err := s.SplitTablet(spec.ID, left, right); err != nil {
						t.Errorf("SplitTablet: %v", err)
					}
				})
			}}
			for i := 0; i < 3; i++ {
				reg.Arm(fmt.Sprintf("dfs.dn%d.write", i), split)
			}
			if err := entry.run(s); err != nil {
				t.Fatalf("compaction: %v", err)
			}
			reg.Reset()
			check := func(what string, s *Server) {
				t.Helper()
				lost := 0
				for i := 0; i < n; i++ {
					child := left
					if i >= n/2 {
						child = right
					}
					if _, err := s.Get(child.ID, testGroup, ek(i)); err != nil {
						lost++
					}
				}
				if lost > 0 {
					t.Fatalf("%s: %d of %d rows unreadable through the children", what, lost, n)
				}
			}
			check("after compaction", s)
			s = open(left, right)
			if _, err := s.Recover(); err != nil {
				t.Fatalf("Recover: %v", err)
			}
			check("after recovery", s)
		})
	}
}

// Compaction asks the index reads use which records are live, so no
// history can read differently after it — including one whose replay
// disagrees with what the running server installed: a 2PC write whose
// key an auto-commit Delete removes between its prepare and its commit
// is installed at commit, after the delete, and stays visible. (Recover
// and CatchUp still drop it: the record carries the prepare's LSN. That
// half of the case is open, so no restart here.)
func TestCompactionPreservesReads(t *testing.T) {
	twoPC := func(t *testing.T, s *Server) map[string]string {
		k := []byte("k")
		if err := s.Write(testTablet, testGroup, k, 1, []byte("v1")); err != nil {
			t.Fatal(err)
		}
		p, err := s.PrepareTxn(7, 10, []TxnWrite{{Tablet: testTablet, Group: testGroup, Key: k, Value: []byte("v10")}})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Delete(testTablet, testGroup, k, 20); err != nil {
			t.Fatal(err)
		}
		if err := s.CommitTxn(7, 10, p); err != nil {
			t.Fatal(err)
		}
		rows, err := versionsOf(s, k)
		if err != nil || len(rows) != 1 || rows[0].TS != 10 {
			t.Fatalf("live versions of k = %v, %v; want the committed write at ts 10", rows, err)
		}
		return map[string]string{"k": fmt.Sprint(rows)}
	}
	histories := []struct {
		name string
		run  func(t *testing.T, s *Server) map[string]string // key -> every stored version
	}{
		{"late-write-after-delete", func(t *testing.T, s *Server) map[string]string {
			lateWriteScript.run(t, s)
			return lateWriteScript.view(t, s)
		}},
		{"2pc-delete-between-prepare-and-commit", twoPC},
	}
	for _, h := range histories {
		for _, entry := range compactEntries[:2] {
			t.Run(h.name+"/"+entry.name, func(t *testing.T) {
				s, _ := newTestServer(t, Config{})
				before := h.run(t, s)
				if err := entry.run(s); err != nil {
					t.Fatalf("compaction: %v", err)
				}
				for key, want := range before {
					rows, err := versionsOf(s, []byte(key))
					if got := fmt.Sprint(rows); err != nil || got != want {
						t.Errorf("versions of %q after compaction = %s, %v; before: %s", key, got, err, want)
					}
				}
			})
		}
	}
}

// Compaction's inputs are removed together or not at all. A whole-log
// run vacuums tombstones, and a crash between two removals would
// otherwise leave the deleted row's segment while the tombstone's is
// gone: earlier incremental output is numbered above the segment that
// was active then, so the tombstone's segment goes first.
func TestCompactPartialRemove(t *testing.T) {
	for _, entry := range compactEntries[:2] {
		t.Run(entry.name, func(t *testing.T) {
			e := newCrashEnv(t, 115)
			o := oracle{}
			victim := []byte("victim")
			if err := e.srv.Write(testTablet, testGroup, victim, 1, []byte("v")); err != nil {
				t.Fatal(err)
			}
			e.srv.Log().Rotate()
			if err := e.srv.Write(testTablet, testGroup, []byte("filler"), 2, []byte("f")); err != nil {
				t.Fatal(err)
			}
			o.put("filler", 2, "f")
			if _, err := e.srv.CompactSegments([]uint32{1}); err != nil {
				t.Fatal(err)
			}
			if err := e.srv.Delete(testTablet, testGroup, victim, 3); err != nil {
				t.Fatal(err)
			}
			if segs := e.srv.Log().Segments(); len(segs) != 2 || segs[0].Num != 2 || !segs[1].Sorted {
				t.Fatalf("layout %+v, want the active segment 2 under the sorted segment 3", segs)
			}
			e.reg.Arm("crash.compact.mid-remove", fault.Policy{Times: 1, Crash: true})
			if err := entry.run(e.srv); !fault.Crashed(err) {
				t.Fatalf("armed compaction err = %v, want crash", err)
			}
			s := e.crashAndRecover()
			if row, err := s.Get(testTablet, testGroup, victim); err == nil {
				t.Fatalf("deleted row resurrected at ts %d by a half-finished removal", row.TS)
			}
			verifyOracle(t, s, o, nil)
			if e.fs.Exists("log/ts-crash/doomed") {
				t.Fatal("removal intent still there after recovery finished it")
			}
		})
	}
}
