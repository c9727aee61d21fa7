package main

import (
	"fmt"
	"strings"
	"testing"
)

// head renders the first 32 ops of every stream of a workload at full
// scale, one stream per line.
func head(name string, seed uint64) string {
	_, streams := workloadOps(name, &runCfg{seed: seed})
	var b strings.Builder
	for i, s := range streams {
		fmt.Fprintf(&b, "stream %d:", i)
		for _, o := range s[:32] {
			fmt.Fprintf(&b, " %s;", o)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestGoldenOps pins the load: the op streams are a pure function of
// the seed and nothing in the repository can move them. If this fails,
// results are no longer comparable with history/ — do not re-pin
// without recording a new baseline.
func TestGoldenOps(t *testing.T) {
	for _, w := range workloads {
		got := head(w.name, 1)
		if got != goldenHeads[w.name] {
			t.Errorf("%s: first ops for seed 1 changed:\n%s\nwant:\n%s", w.name, got, goldenHeads[w.name])
		}
		if head(w.name, 2) == got {
			t.Errorf("%s: seed 2 draws the same ops as seed 1", w.name)
		}
		if head(w.name, 1) != got {
			t.Errorf("%s: the same seed drew different ops", w.name)
		}
	}
}

// TestValueRoundTrip checks the self-describing value encoding the
// oracle relies on.
func TestValueRoundTrip(t *testing.T) {
	buf := make([]byte, valueSize)
	for _, c := range []struct {
		id  int
		seq int64
	}{{0, 1}, {99999999, 9999999999}, {1234, 42}} {
		v := fillValue(buf, c.id, c.seq)
		id, seq, ok := parseValue(v)
		if !ok || id != c.id || seq != c.seq || len(v) != valueSize {
			t.Errorf("fillValue(%d, %d) parsed back as %d, %d, %v", c.id, c.seq, id, seq, ok)
		}
		v[keyLen+13]++ // wrong tag
		if _, _, ok := parseValue(v); ok {
			t.Errorf("a value with a wrong tag parsed: %q", v[:30])
		}
	}
	if parseKey([]byte("k0000012x")) != -1 || parseKey(keyOf(77)) != 77 {
		t.Error("parseKey")
	}
}

var goldenHeads = map[string]string{
	"wire-oltp":     "stream 0: GET k00000292; PUT k00000228; PUT k00002388; GET k00002047; GET k00002047; PUT k00000332; GET k00001026; GET k00001024; GET k00002047; PUT k00000752; PUT k00002046; PUT k00000612; PUT k00000284; PUT k00002046; GET k00000577; PUT k00001468; GET k00000498; GET k00000578; PUT k00000078; PUT k00001410; GET k00002047; PUT k00001964; GET k00001391; PUT k00002508; GET k00002601; PUT k00000522; PUT k00002872; GET k00002047; PUT k00002874; SCAN k00000498 LIMIT 50; PUT k00001516; PUT k00001516;\nstream 1: GET k00000228; GET k00002388; GET k00002047; PUT k00002047; GET k00000332; GET k00001026; PUT k00001025; GET k00002047; GET k00000753; PUT k00002047; PUT k00000613; GET k00000285; GET k00002047; GET k00000577; GET k00001468; PUT k00000499; PUT k00000579; PUT k00000079; PUT k00001411; PUT k00002047; GET k00001964; PUT k00001391; PUT k00002509; GET k00002601; PUT k00000523; PUT k00002873; PUT k00002047; PUT k00002875; PUT k00000499; GET k00001517; GET k00001517; GET k00002047;\n",
	"cluster-write": "stream 0: PUT k00026194; PUT k00030480; PUT k00004006; PUT k00026194; PUT k00000665; PUT k00013242; PUT k00041688; DEL k00035944; PUT k00011560; PUT k00010856; PUT k00026194; DEL k00012676; PUT k00033073; GET k00055623; TX k00052018 k00020147; PUT k00013924; PUT k00026194; PUT k00041549; PUT k00034916; PUT k00011173; PUT k00019336; PUT k00026194; PUT k00027683; PUT k00056030; PUT k00023172; TX k00025765 k00011372; SCAN k00026194 LIMIT 50; PUT k00026194; PUT k00052851; PUT k00059619; PUT k00058745; PUT k00016724;\n",
	"scan-mixed":    "stream 0: PUT k00012676; PUT k00033073; GET k00055623; PUT k00052018; PUT k00020147; SCANF k00013924 LIMIT 100; PUT k00026194; PUT k00041549; PUT k00034916; PUT k00011173; PUT k00019336; PUT k00026194; PUT k00027683; PUT k00056030; PUT k00023172; PUT k00025765; PUT k00011372; PUT k00026194; PUT k00026194; PUT k00052851; PUT k00059619; PUT k00058745; PUT k00016724; GET k00023218; SCAN k00021761 LIMIT 100; PUT k00045271; PUT k00021789; PUT k00025184; GET k00003339; SCAN k00058939 LIMIT 100; GET k00034916; PUT k00039493;\n",
	"recover-maint": "stream 0: PUT k00095129; PUT k00095129; PUT k00091338; PUT k00059586; PUT k00020758; PUT k00072229; PUT k00091555; PUT k00004932; PUT k00091338; PUT k00091338; PUT k00044709; PUT k00082544; DEL k00020299; PUT k00079551; PUT k00055992; PUT k00012440; PUT k00045930; PUT k00063817; PUT k00028799; PUT k00024626; PUT k00032697; DEL k00045717; PUT k00076978; PUT k00022441; PUT k00082420; PUT k00061495; PUT k00019520; PUT k00025633; PUT k00065152; PUT k00044709; PUT k00001487; PUT k00029208;\nstream 1: GET k00095129; GET k00091338; GET k00059586; GET k00020758; GET k00072229; GET k00091555; GET k00004932; GET k00091338; GET k00091338; GET k00044709; GET k00082544; GET k00020299; GET k00079551; GET k00055992; GET k00012440; GET k00045930; GET k00063817; GET k00028799; SCAN k00024626 LIMIT 100; GET k00032697; GET k00045717; GET k00076978; GET k00022441; GET k00082420; GET k00061495; GET k00019520; GET k00025633; GET k00065152; SCAN k00044709 LIMIT 100; GET k00001487; GET k00029208; GET k00077210;\n",
}
