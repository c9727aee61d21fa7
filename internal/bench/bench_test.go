package bench

import (
	"strconv"
	"strings"
	"testing"
)

// tinyScale keeps the full registry smoke test fast.
func tinyScale() Scale {
	return Scale{Rows: 800, Ops: 400, ValueSize: 128, Nodes: []int{2, 3}, Workers: 2}
}

func TestRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if ids[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		ids[e.ID] = true
	}
	// Every paper figure 6..22 must be present.
	for f := 6; f <= 22; f++ {
		id := "fig" + pad2(f)
		if !ids[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
	if _, ok := Find("fig06"); !ok {
		t.Error("Find(fig06) failed")
	}
	if _, ok := Find("nope"); ok {
		t.Error("Find(nope) succeeded")
	}
}

func pad2(n int) string {
	s := strconv.Itoa(n)
	if len(s) == 1 {
		return "0" + s
	}
	return s
}

// TestAllExperimentsRun executes the complete registry at tiny scale:
// every figure must produce a non-empty table without error. Shape
// flags are only logged here: TestDeterministicShapesHold asserts the
// ones that do not depend on the host, each at a scale where it means
// something.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry run skipped in -short mode")
	}
	s := tinyScale()
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tab, err := e.Run(s)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tab.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			t.Logf("%s shape held: %v\n%s", e.ID, tab.Hold, tab.Render())
		})
	}
}

// assertedShapes is every experiment whose shape is stated in modelled
// disk time or in counts, with the smallest scale at which that shape is
// meaningful. This table is the only place those invariants are
// enforced: obs/fault overhead <= 5%, push-down ships exactly the limit,
// clustered scan >= 2x, autocompact sorted fraction >= 0.5, greedy join
// >= 2x with identical results, replica scans charge the primary
// nothing, live shipping and the changefeed tail add <= 5% to bare
// writes.
//
// Not here, and only logged by TestAllExperimentsRun, are the shapes a
// loaded or small host can flip: those stated in wall time (fig12-fig17,
// fig22, bulk-load, and elastic-hotrange's throughput clause on hosts
// with >= 4 CPUs) and abl-group-commit, whose write-op counts depend on
// how the scheduler fills each batch.
var assertedShapes = []struct {
	id    string
	scale Scale
}{
	{"fig06", tinyScale()},
	{"fig07", tinyScale()},
	// The block cache only absorbs repeat blocks once the table has
	// more than a few of them.
	{"fig08", SmallScale()},
	{"fig09", tinyScale()},
	{"fig10", tinyScale()},
	{"fig11", tinyScale()},
	{"fig18", tinyScale()},
	{"fig19", tinyScale()},
	{"fig20", tinyScale()},
	{"fig21", tinyScale()},
	{"abl-log-per-group", tinyScale()},
	{"abl-cache-policy", tinyScale()},
	{"abl-bloom", tinyScale()},
	{"abl-vertical", tinyScale()},
	{"analytic-scan", tinyScale()},
	{"analytic-mix", tinyScale()},
	{"scan-pushdown", tinyScale()}, // loads its own 8000-row floor
	// 4 rounds x 25k rows: the 100k-row compacted table of the
	// clustered-scan acceptance criterion. Below ~2 MB of data the fixed
	// segment-open seeks hide the per-row win.
	{"scan-clustered", Scale{Rows: 50_000, ValueSize: 256}},
	// 4000 keys: enough 1 MB segments seal for the compactor to matter.
	{"autocompact", Scale{Rows: 16_000, ValueSize: 256}},
	{"obs-overhead", tinyScale()},
	{"fault-overhead", tinyScale()},
	// 800 events of history in 4 segments, 400 live writes.
	{"cdc-tail", Scale{Rows: 3200, Ops: 800, ValueSize: 128}},
	// The fact table has to dwarf the joined 5% slice: the ratio needs
	// 1000 lineitems (2.1x at 128-byte rows); this is 5.8x.
	{"join-greedy", Scale{Rows: 2000, ValueSize: 256}},
	{"replica-scan", tinyScale()},
}

func TestDeterministicShapesHold(t *testing.T) {
	if testing.Short() {
		t.Skip("shape checks skipped in -short mode")
	}
	for _, tc := range assertedShapes {
		e, ok := Find(tc.id)
		if !ok {
			t.Fatalf("experiment %s missing", tc.id)
		}
		t.Run(tc.id, func(t *testing.T) {
			t.Parallel() // every experiment owns its disks and its clock
			tab, err := e.Run(tc.scale)
			if err != nil {
				t.Fatal(err)
			}
			if !tab.Hold {
				t.Errorf("shape did not hold:\n%s", tab.Render())
			}
		})
	}
}

func TestTableRender(t *testing.T) {
	tab := Table{
		ID: "x", Title: "demo",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "22"}, {"333", "4"}},
		Shape:  "demo shape", Hold: true,
	}
	out := tab.Render()
	if out == "" || len(out) < 20 {
		t.Errorf("Render output too small: %q", out)
	}
	if md := tab.Markdown(); !strings.Contains(md, "| a | b |\n| --- | --- |\n| 1 | 22 |") || !strings.Contains(md, "**held**") {
		t.Errorf("Markdown output malformed:\n%s", md)
	}
}

// TestElasticBalancerNoLostRows runs the balancer-on hot-range phase
// and checks every loaded row survives the splits and migrations.
func TestElasticBalancerNoLostRows(t *testing.T) {
	if err := elasticSmoke(500, 300, 6); err != nil {
		t.Fatal(err)
	}
}
