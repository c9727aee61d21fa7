package partition

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
)

func TestIOCost(t *testing.T) {
	cols := []ColumnSpec{{"a", 10}, {"b", 20}, {"c", 30}}
	queries := []Query{{Columns: []string{"a"}, Freq: 1}}
	// One group per column: query reads only column a plus one seek.
	if c := IOCost(cols, [][]string{{"a"}, {"b"}, {"c"}}, queries); c != 10+GroupSeekOverhead {
		t.Errorf("split cost = %v, want %v", c, 10+GroupSeekOverhead)
	}
	// All in one group: query pays for the whole row plus one seek.
	if c := IOCost(cols, [][]string{{"a", "b", "c"}}, queries); c != 60+GroupSeekOverhead {
		t.Errorf("merged cost = %v, want %v", c, 60+GroupSeekOverhead)
	}
}

func TestOptimizeGroupsCoAccessedColumns(t *testing.T) {
	cols := []ColumnSpec{{"id", 8}, {"price", 8}, {"qty", 8}, {"bio", 500}}
	queries := []Query{
		{Columns: []string{"price", "qty"}, Freq: 100}, // hot pair
		{Columns: []string{"bio"}, Freq: 1},
	}
	groups := Optimize(cols, queries)
	var priceGroup, qtyGroup, bioGroup string
	for _, g := range groups {
		for _, c := range g.Columns {
			switch c {
			case "price":
				priceGroup = g.Name
			case "qty":
				qtyGroup = g.Name
			case "bio":
				bioGroup = g.Name
			}
		}
	}
	if priceGroup != qtyGroup {
		t.Errorf("price and qty split across %s/%s despite co-access", priceGroup, qtyGroup)
	}
	if bioGroup == priceGroup {
		t.Error("cold wide column merged into hot group")
	}
}

func TestOptimizeNeverWorseThanAllSplit(t *testing.T) {
	f := func(freqs [4]uint8) bool {
		cols := []ColumnSpec{{"a", 10}, {"b", 20}, {"c", 5}, {"d", 40}}
		queries := []Query{
			{Columns: []string{"a", "b"}, Freq: float64(freqs[0])},
			{Columns: []string{"c"}, Freq: float64(freqs[1])},
			{Columns: []string{"b", "d"}, Freq: float64(freqs[2])},
			{Columns: []string{"a", "b", "c", "d"}, Freq: float64(freqs[3])},
		}
		groups := Optimize(cols, queries)
		var asLists [][]string
		seen := map[string]bool{}
		for _, g := range groups {
			asLists = append(asLists, g.Columns)
			for _, c := range g.Columns {
				if seen[c] {
					return false // column in two groups
				}
				seen[c] = true
			}
		}
		if len(seen) != 4 {
			return false // lost a column
		}
		split := [][]string{{"a"}, {"b"}, {"c"}, {"d"}}
		return IOCost(cols, asLists, queries) <= IOCost(cols, split, queries)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRangeContains(t *testing.T) {
	r := Range{Start: []byte("b"), End: []byte("m")}
	cases := []struct {
		key  string
		want bool
	}{{"a", false}, {"b", true}, {"g", true}, {"m", false}, {"z", false}}
	for _, c := range cases {
		if got := r.Contains([]byte(c.key)); got != c.want {
			t.Errorf("Contains(%q) = %v", c.key, got)
		}
	}
	open := Range{}
	if !open.Contains([]byte("anything")) || !open.Contains([]byte{}) {
		t.Error("open range rejected a key")
	}
}

func TestSplitUniformCoversKeyspace(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 24} {
		ranges := SplitUniform(n)
		if len(ranges) != n {
			t.Fatalf("SplitUniform(%d) returned %d ranges", n, len(ranges))
		}
		if ranges[0].Start != nil && len(ranges[0].Start) != 0 {
			t.Errorf("n=%d: first range start = %v", n, ranges[0].Start)
		}
		if ranges[n-1].End != nil {
			t.Errorf("n=%d: last range end = %v", n, ranges[n-1].End)
		}
		for i := 1; i < n; i++ {
			if !bytes.Equal(ranges[i].Start, ranges[i-1].End) {
				t.Errorf("n=%d: gap between range %d and %d", n, i-1, i)
			}
		}
	}
}

func TestRouterLookup(t *testing.T) {
	tablets := MakeTablets("users", SplitUniform(4))
	r := NewRouter(tablets)
	// Every byte value must land in exactly one tablet.
	counts := map[string]int{}
	for b := 0; b < 256; b++ {
		tab, ok := r.Lookup([]byte{byte(b), 'x'})
		if !ok {
			t.Fatalf("Lookup(%d) found no tablet", b)
		}
		counts[tab.ID]++
	}
	if len(counts) != 4 {
		t.Errorf("keys landed in %d tablets, want 4: %v", len(counts), counts)
	}
	for id, c := range counts {
		if c != 64 {
			t.Errorf("tablet %s got %d byte values, want 64", id, c)
		}
	}
}

func TestRouterOverlapping(t *testing.T) {
	tablets := MakeTablets("t", SplitUniform(4)) // cuts at 0x40, 0x80, 0xC0
	r := NewRouter(tablets)
	got := r.Overlapping([]byte{0x50}, []byte{0x90})
	if len(got) != 2 {
		t.Fatalf("Overlapping returned %d tablets, want 2", len(got))
	}
	if got[0].ID != "t/0001" || got[1].ID != "t/0002" {
		t.Errorf("Overlapping = %v, %v", got[0].ID, got[1].ID)
	}
	// Full scan touches all tablets.
	if n := len(r.Overlapping(nil, nil)); n != 4 {
		t.Errorf("full-range overlap = %d tablets", n)
	}
}

func TestQuickRouterTotalAndUnique(t *testing.T) {
	r := NewRouter(MakeTablets("t", SplitUniform(7)))
	f := func(key []byte) bool {
		tab, ok := r.Lookup(key)
		if !ok {
			return false
		}
		return tab.Range.Contains(key)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestEntityKeyClustering(t *testing.T) {
	r := NewRouter(MakeTablets("t", SplitUniform(8)))
	// All rows of one entity share its key prefix (paper §3.2) and must
	// land on the same tablet.
	base, ok := r.Lookup([]byte("user42/cart"))
	if !ok {
		t.Fatal("lookup failed")
	}
	for _, suffix := range []string{"orders/1", "orders/2", "profile"} {
		tab, ok := r.Lookup([]byte("user42/" + suffix))
		if !ok || tab.ID != base.ID {
			t.Errorf("entity row %q routed to %v, want %v", suffix, tab.ID, base.ID)
		}
	}
}

func TestMakeTabletsIDs(t *testing.T) {
	tablets := MakeTablets("orders", SplitUniform(3))
	for i, tab := range tablets {
		want := fmt.Sprintf("orders/%04d", i)
		if tab.ID != want || tab.Table != "orders" {
			t.Errorf("tablet %d = %+v, want ID %s", i, tab, want)
		}
	}
}

func TestSplitUniformEdgeCases(t *testing.T) {
	// n <= 1 (including zero and negative) is the whole keyspace as one
	// unbounded range — the "empty keyspace cut" case.
	for _, n := range []int{-3, 0, 1} {
		ranges := SplitUniform(n)
		if len(ranges) != 1 {
			t.Fatalf("SplitUniform(%d) = %d ranges, want 1", n, len(ranges))
		}
		if len(ranges[0].Start) != 0 || ranges[0].End != nil {
			t.Fatalf("SplitUniform(%d) = %+v, want unbounded", n, ranges[0])
		}
		if !ranges[0].Contains(nil) || !ranges[0].Contains([]byte("anything")) {
			t.Fatalf("SplitUniform(%d) range does not cover the keyspace", n)
		}
	}
}

func TestSplitUniformBeyond256(t *testing.T) {
	// The old single-byte-prefix cuts collapsed past n=256; two-byte
	// cuts must keep every range distinct and contiguous.
	for _, n := range []int{257, 300, 1000} {
		ranges := SplitUniform(n)
		if len(ranges) != n {
			t.Fatalf("SplitUniform(%d) returned %d ranges", n, len(ranges))
		}
		for i := 1; i < n; i++ {
			if !bytes.Equal(ranges[i].Start, ranges[i-1].End) {
				t.Fatalf("n=%d: gap between range %d and %d", n, i-1, i)
			}
			if bytes.Compare(ranges[i-1].Start, ranges[i-1].End) >= 0 && len(ranges[i-1].Start) > 0 {
				t.Fatalf("n=%d: empty range %d: %+v", n, i-1, ranges[i-1])
			}
		}
	}
}

func TestSplitAtArbitraryKeys(t *testing.T) {
	// Arbitrary multi-byte split keys, unsorted and with duplicates.
	keys := [][]byte{[]byte("user500"), []byte("m"), []byte("user500"), []byte("zzz/last"), nil}
	ranges := SplitAt(keys)
	if len(ranges) != 4 {
		t.Fatalf("SplitAt = %d ranges, want 4", len(ranges))
	}
	want := [][]byte{nil, []byte("m"), []byte("user500"), []byte("zzz/last")}
	for i, r := range ranges {
		if !bytes.Equal(r.Start, want[i]) {
			t.Errorf("range %d start = %q, want %q", i, r.Start, want[i])
		}
	}
	// Router over them covers everything with no overlap.
	r := NewRouter(MakeTablets("t", ranges))
	for _, k := range []string{"", "a", "m", "user499", "user500", "user501", "zzz/lastX"} {
		if _, ok := r.Lookup([]byte(k)); !ok {
			t.Errorf("Lookup(%q) found no tablet", k)
		}
	}
	if len(SplitAt(nil)) != 1 {
		t.Fatalf("SplitAt(nil) should be the single unbounded range")
	}
}

func TestRangeSplit(t *testing.T) {
	r := Range{Start: []byte("b"), End: []byte("x")}
	left, right, err := r.Split([]byte("m"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(left.Start, []byte("b")) || !bytes.Equal(left.End, []byte("m")) {
		t.Fatalf("left = %+v", left)
	}
	if !bytes.Equal(right.Start, []byte("m")) || !bytes.Equal(right.End, []byte("x")) {
		t.Fatalf("right = %+v", right)
	}
	if left.Contains([]byte("m")) || !right.Contains([]byte("m")) {
		t.Fatal("split key must belong to the right child")
	}
	// Keys outside or on the boundary are rejected (empty child).
	for _, bad := range [][]byte{nil, []byte("a"), []byte("b"), []byte("x"), []byte("z")} {
		if _, _, err := r.Split(bad); err == nil {
			t.Errorf("Split(%q) should fail", bad)
		}
	}
	// Splitting an unbounded range works with any interior key.
	if _, _, err := (Range{}).Split([]byte("k")); err != nil {
		t.Fatalf("unbounded split: %v", err)
	}
}
