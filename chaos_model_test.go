package logbase_test

// Seeded chaos sweep: writes, deletes and scans run while the fault
// registry injects transient replica-read failures, a crash point
// kills one put between its WAL append and index install, and (on the
// cluster backend) whole tablet servers die mid-round. After every
// round the engine must agree row for row with an in-memory oracle:
// every acknowledged write present, every delete honoured, nothing
// resurrected. The seed comes from LOGBASE_CHAOS_SEED when set (the
// nightly CI job passes a fresh one per run and logs it for replay)
// and is fixed otherwise so the PR-gating run is deterministic.

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"testing"

	logbase "repro"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/fault"
)

func chaosSeed(t *testing.T) int64 {
	t.Helper()
	seed := int64(0x10b5ed)
	if env := os.Getenv("LOGBASE_CHAOS_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("LOGBASE_CHAOS_SEED=%q: %v", env, err)
		}
		seed = v
	}
	t.Logf("chaos seed %d (replay: LOGBASE_CHAOS_SEED=%d go test -race -run %s)", seed, seed, t.Name())
	return seed
}

// chaosVerify compares a full scan against the oracle's latest values.
func chaosVerify(t *testing.T, tag string, st logbase.Store, model map[string]string) {
	t.Helper()
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	got := drain(t, st.Scan(bg, "t", "g", nil, nil))
	if len(got) != len(keys) {
		t.Fatalf("%s: scan saw %d rows, oracle has %d", tag, len(got), len(keys))
	}
	for i, k := range keys {
		if string(got[i].Key) != k || string(got[i].Value) != model[k] {
			t.Fatalf("%s: row %d = %q=%q, oracle %q=%q", tag, i, got[i].Key, got[i].Value, k, model[k])
		}
	}
}

// chaosWrites applies one round of random puts and deletes, keeping
// the oracle in lock-step. A put that dies at an armed crash point is
// returned to the caller (the "process" is gone; whether the torn
// record survives recovery is learned afterwards, never assumed).
func chaosWrites(t *testing.T, st logbase.Store, rng *rand.Rand, round int, model map[string]string) (crashedKey string) {
	t.Helper()
	for i := 0; i < 150; i++ {
		k := fmt.Sprintf("key/%04d", rng.Intn(120))
		if rng.Intn(8) == 0 {
			if err := st.Delete(bg, "t", "g", []byte(k)); err != nil {
				t.Fatalf("round %d Delete(%q): %v", round, k, err)
			}
			delete(model, k)
			continue
		}
		v := fmt.Sprintf("v%d-%d", round, i)
		if err := st.Put(bg, "t", "g", []byte(k), []byte(v)); err != nil {
			if fault.Crashed(err) {
				return k
			}
			t.Fatalf("round %d Put(%q): %v", round, k, err)
		}
		model[k] = v
	}
	return ""
}

// relearn resolves a crash-ambiguous key from the recovered engine:
// the record was appended but never acknowledged, so the oracle
// accepts whatever recovery decided.
func relearn(t *testing.T, st logbase.Store, model map[string]string, key string) {
	t.Helper()
	row, err := st.Get(bg, "t", "g", []byte(key))
	switch {
	case err == nil:
		model[key] = string(row.Value)
	case errors.Is(err, logbase.ErrNotFound):
		delete(model, key)
	default:
		t.Fatalf("relearn %q after crash: %v", key, err)
	}
}

func TestChaosModelEmbedded(t *testing.T) {
	seed := chaosSeed(t)
	rng := rand.New(rand.NewSource(seed))
	reg := fault.New(seed)
	db, err := logbase.Open(t.TempDir(), logbase.Options{SegmentSize: 1 << 18, Faults: reg})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer func() { db.Close() }()
	db.CreateTable("t", "g")

	model := map[string]string{}
	const rounds = 6
	for round := 0; round < rounds; round++ {
		// One datanode serves flaky reads all round: with three
		// replicas per block the reader fails over, so acknowledged
		// data stays readable throughout.
		reg.Arm(fmt.Sprintf("dfs.dn%d.read", rng.Intn(3)), fault.Policy{Prob: 0.2})
		if round == 2 {
			// One put this round dies between its WAL append and index
			// install — the crash-point half of the sweep.
			reg.Arm("crash.put.pre-index", fault.Policy{After: 40, Times: 1, Crash: true})
		}
		crashed := chaosWrites(t, db, rng, round, model)
		if crashed != "" {
			// Process death: drop all memory, keep the disk, recover.
			db2, err := db.Reopen()
			if err != nil {
				t.Fatalf("round %d Reopen after crash: %v", round, err)
			}
			db = db2
			db.CreateTable("t", "g")
			if _, err := db.Recover(); err != nil {
				t.Fatalf("round %d Recover: %v", round, err)
			}
			relearn(t, db, model, crashed)
		}
		chaosVerify(t, fmt.Sprintf("embedded round %d", round), db, model)
	}

	// Quiesce the faults; the surviving on-disk state must scrub clean
	// (every injected failure was transient, none touched stored bytes).
	reg.Reset()
	reps, err := db.Scrub()
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if len(reps) != 1 || !reps[0].Clean() {
		t.Fatalf("post-chaos scrub found damage: %+v", reps)
	}
	chaosVerify(t, "embedded final", db, model)
}

func TestChaosModelCluster(t *testing.T) {
	seed := chaosSeed(t)
	rng := rand.New(rand.NewSource(seed))
	reg := fault.New(seed)
	c, err := logbase.NewCluster(t.TempDir(), logbase.ClusterConfig{
		NumServers: 4,
		Tables:     []logbase.TableSpec{{Name: "t", Groups: []string{"g"}, Tablets: 4}},
		Server:     core.Config{SegmentSize: 1 << 18, Faults: reg},
		DFS:        dfs.Config{Faults: reg},
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	cc := logbase.NewClusterClient(c)
	defer cc.Close()

	model := map[string]string{}
	const rounds = 5
	for round := 0; round < rounds; round++ {
		reg.Arm(fmt.Sprintf("dfs.dn%d.read", rng.Intn(3)), fault.Policy{Prob: 0.15})
		if crashed := chaosWrites(t, cc, rng, round, model); crashed != "" {
			t.Fatalf("round %d: cluster put crashed (no crash point armed)", round)
		}
		// Churn: lose a tablet server mid-sweep; its tablets are
		// peer-recovered from the shared log and the client re-routes.
		if (round == 1 || round == 3) && len(c.LiveServers()) > 2 {
			live := c.LiveServers()
			victim := live[rng.Intn(len(live))]
			if err := c.KillServer(victim); err != nil {
				t.Fatalf("round %d KillServer(%s): %v", round, victim, err)
			}
		}
		chaosVerify(t, fmt.Sprintf("cluster round %d", round), cc, model)
	}

	// Scrub acceptance on the surviving servers: corrupt one replica
	// copy of a populated block, scrub repairs it from a healthy peer,
	// and a second pass finds nothing.
	reg.Reset()
	corrupted := false
	for _, id := range c.LiveServers() {
		log := c.Server(id).Log()
		path := log.SegmentPath(log.ActiveSegment())
		blocks, err := c.FS().Blocks(path)
		if err != nil || len(blocks) == 0 || blocks[0].Size < 128 || len(blocks[0].Replicas) < 2 {
			continue
		}
		if err := c.FS().CorruptBlockReplica(path, 0, blocks[0].Replicas[0], 64); err != nil {
			t.Fatalf("CorruptBlockReplica on %s: %v", id, err)
		}
		corrupted = true
		break
	}
	if !corrupted {
		t.Fatal("no live server had a populated segment block to corrupt")
	}
	first, err := cc.Scrub()
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	repaired := 0
	for _, rep := range first {
		repaired += rep.RepairedBlocks
		if len(rep.Unrecoverable) != 0 {
			t.Fatalf("scrub on %s reported unrecoverable damage: %+v", rep.Server, rep.Unrecoverable)
		}
	}
	if repaired != 1 {
		t.Fatalf("first scrub repaired %d blocks, want 1", repaired)
	}
	second, err := cc.Scrub()
	if err != nil {
		t.Fatalf("second Scrub: %v", err)
	}
	for _, rep := range second {
		if !rep.Clean() {
			t.Fatalf("second scrub on %s still found work: %+v", rep.Server, rep)
		}
	}
	chaosVerify(t, "cluster final", cc, model)
}
