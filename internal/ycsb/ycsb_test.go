package ycsb

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestZipfianRange(t *testing.T) {
	z := NewZipfian(1000, 0.99)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		v := z.Next(rng)
		if v < 0 || v >= 1000 {
			t.Fatalf("Zipfian out of range: %d", v)
		}
	}
}

func TestZipfianSkewVsUniform(t *testing.T) {
	const n, draws = 10000, 200000
	// The share of draws landing on the first 1% of items: Zipfian's
	// hottest items are its lowest ranks.
	hotShare := func(g Generator) float64 {
		rng := rand.New(rand.NewSource(42))
		hot := 0
		for i := 0; i < draws; i++ {
			if g.Next(rng) < n/100 {
				hot++
			}
		}
		return float64(hot) / draws
	}
	zs, us := hotShare(NewZipfian(n, 0.99)), hotShare(Uniform{N: n})
	if zs < 0.3 {
		t.Errorf("Zipfian hot-1%% share = %.3f, want heavy skew", zs)
	}
	if us > 0.05 {
		t.Errorf("uniform hot-1%% share = %.3f, want ~0.01", us)
	}
	if zs < 5*us {
		t.Errorf("skew contrast too small: zipf %.3f vs uniform %.3f", zs, us)
	}
}

func TestZipfianHeadOrdered(t *testing.T) {
	// Item 0 must be the single hottest item.
	z := NewZipfian(1000, 0.99)
	rng := rand.New(rand.NewSource(7))
	counts := map[int64]int{}
	for i := 0; i < 100000; i++ {
		counts[z.Next(rng)]++
	}
	for k, c := range counts {
		if k != 0 && c > counts[0] {
			t.Errorf("item %d (%d draws) hotter than item 0 (%d)", k, c, counts[0])
		}
	}
}

// keyDomain is the paper's YCSB key domain bound (2e9).
const keyDomain = 2_000_000_000

func TestZipfianLargeDomain(t *testing.T) {
	// The paper's 2e9 domain must construct quickly and stay in range.
	start := time.Now()
	z := NewZipfian(keyDomain, 0.99)
	if time.Since(start) > 2*time.Second {
		t.Errorf("construction over 2e9 domain took %v", time.Since(start))
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		v := z.Next(rng)
		if v < 0 || v >= keyDomain {
			t.Fatalf("out of range: %d", v)
		}
	}
}

func TestKeyOrdering(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := int64(a%keyDomain), int64(b%keyDomain)
		ka, kb := Key(x), Key(y)
		switch {
		case x < y:
			return bytes.Compare(ka, kb) < 0
		case x > y:
			return bytes.Compare(ka, kb) > 0
		default:
			return bytes.Equal(ka, kb)
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	h := &Histogram{}
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != 1000 {
		t.Errorf("Count = %d", h.Count())
	}
	mean := h.Mean()
	if mean < 400*time.Microsecond || mean > 600*time.Microsecond {
		t.Errorf("Mean = %v, want ~500µs", mean)
	}
}

// memDB is an in-memory DB for runner tests.
type memDB struct {
	mu    sync.Mutex
	data  map[string][]byte
	errOn string
}

func newMemDB() *memDB { return &memDB{data: map[string][]byte{}} }

func (m *memDB) Insert(key, value []byte) error { return m.Update(key, value) }

func (m *memDB) Update(key, value []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.errOn != "" && string(key) == m.errOn {
		return errors.New("injected failure")
	}
	m.data[string(key)] = append([]byte(nil), value...)
	return nil
}

func (m *memDB) Read(key []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.data[string(key)]; !ok {
		return errors.New("not found")
	}
	return nil
}

func TestLoadInsertsEverything(t *testing.T) {
	db := newMemDB()
	elapsed, err := Load(db, 1000, 64, 4, 1)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if elapsed <= 0 {
		t.Error("zero elapsed")
	}
	if len(db.data) != 1000 {
		t.Errorf("loaded %d records, want 1000", len(db.data))
	}
}

func TestRunMixedCountsAndThroughput(t *testing.T) {
	db := newMemDB()
	if _, err := Load(db, 500, 64, 2, 1); err != nil {
		t.Fatalf("Load: %v", err)
	}
	res, err := Run(db, Workload{Records: 500, UpdateFraction: 0.75, ValueSize: 64}, 4000, 4, 2)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Ops != 4000 {
		t.Errorf("Ops = %d", res.Ops)
	}
	updates := res.UpdateLat.Count()
	frac := float64(updates) / float64(res.Ops)
	if frac < 0.70 || frac > 0.80 {
		t.Errorf("update fraction = %.3f, want ~0.75", frac)
	}
	if res.Throughput <= 0 {
		t.Error("zero throughput")
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	db := newMemDB()
	Load(db, 100, 8, 1, 1)
	db.errOn = string(Key(0)) // hottest zipfian key
	_, err := Run(db, Workload{Records: 100, UpdateFraction: 1.0, ValueSize: 8}, 1000, 2, 3)
	if err == nil {
		t.Error("injected failure not propagated")
	}
}

func TestHotRangeConcentratesDraws(t *testing.T) {
	const n = 10_000
	g := HotRange{N: n, Lo: 1000, Hi: 2000, Hot: 0.9}
	rng := rand.New(rand.NewSource(42))
	in := 0
	const draws = 50_000
	for i := 0; i < draws; i++ {
		v := g.Next(rng)
		if v < 0 || v >= n {
			t.Fatalf("draw %d outside domain", v)
		}
		if v >= 1000 && v < 2000 {
			in++
		}
	}
	// Expected fraction: 0.9 + 0.1*(1000/10000) = 0.91.
	frac := float64(in) / draws
	if frac < 0.88 || frac > 0.94 {
		t.Fatalf("hot-band fraction = %.3f, want ~0.91", frac)
	}
	// Degenerate band falls back to uniform.
	u := HotRange{N: n, Hot: 1.0}
	for i := 0; i < 100; i++ {
		if v := u.Next(rng); v < 0 || v >= n {
			t.Fatalf("degenerate band draw %d outside domain", v)
		}
	}
}
