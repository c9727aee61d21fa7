// Package ycsb re-implements the parts of the Yahoo! Cloud Serving
// Benchmark the paper's evaluation uses (§4.1, §4.3): key generators
// (Zipfian with coefficient ~1.0 over a 2·10^9 key domain, uniform and
// a hot range), a parallel loading phase, and mixed read/update phases
// with throughput and per-operation latency reporting.
package ycsb

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"
)

// Generator produces item indexes in [0, n).
type Generator interface {
	Next(rng *rand.Rand) int64
}

// Uniform picks keys uniformly.
type Uniform struct{ N int64 }

// Next implements Generator.
func (u Uniform) Next(rng *rand.Rand) int64 { return rng.Int63n(u.N) }

// Zipfian is the standard YCSB/Gray et al. Zipfian generator: item 0 is
// the hottest. Theta 0.99 reproduces YCSB's "zipfian constant ~1.0"
// (exactly 1.0 makes the zeta series diverge).
type Zipfian struct {
	n     int64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	zeta2 float64
}

// NewZipfian builds a generator over [0, n) with the given theta
// (<= 0 means 0.99).
func NewZipfian(n int64, theta float64) *Zipfian {
	if theta <= 0 {
		theta = 0.99
	}
	z := &Zipfian{n: n, theta: theta}
	z.zeta2 = zetaStatic(2, theta)
	z.zetan = zetaStatic(n, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

func zetaStatic(n int64, theta float64) float64 {
	// Exact up to a cutoff, then the Euler–Maclaurin integral
	// approximation — exact summation to 2e9 would take minutes.
	const cutoff = 1_000_000
	var sum float64
	m := n
	if m > cutoff {
		m = cutoff
	}
	for i := int64(1); i <= m; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	if n > cutoff {
		a, b := float64(cutoff), float64(n)
		sum += (math.Pow(b, 1-theta) - math.Pow(a, 1-theta)) / (1 - theta)
	}
	return sum
}

// Next implements Generator.
func (z *Zipfian) Next(rng *rand.Rand) int64 {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, z.theta) {
		return 1
	}
	return int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// HotRange concentrates a fraction of draws on one contiguous band of
// the key domain: with probability Hot the draw is uniform in [Lo, Hi),
// otherwise uniform over [0, N). Unlike (scrambled) Zipfian — whose hot
// items spread over the whole keyspace — the hot band lands inside ONE
// key-range tablet, which is exactly the workload that pins a tablet
// server until the cluster splits and migrates the hot tablet.
type HotRange struct {
	N      int64   // key domain [0, N)
	Lo, Hi int64   // hot band [Lo, Hi), 0 <= Lo < Hi <= N
	Hot    float64 // probability a draw lands in the hot band
}

// Next implements Generator.
func (h HotRange) Next(rng *rand.Rand) int64 {
	if h.Hi > h.Lo && rng.Float64() < h.Hot {
		return h.Lo + rng.Int63n(h.Hi-h.Lo)
	}
	return rng.Int63n(h.N)
}

// Key renders item index i as the benchmark key (zero-padded so lexical
// order matches numeric order).
func Key(i int64) []byte { return []byte(fmt.Sprintf("user%012d", i)) }

// DB is the benchmark's view of a store; the harness adapts LogBase,
// HBase and LRS to it.
type DB interface {
	Insert(key, value []byte) error
	Update(key, value []byte) error
	Read(key []byte) error
}

// Histogram accumulates latency samples: their count and mean.
type Histogram struct {
	mu    sync.Mutex
	count int64
	sum   time.Duration
}

// Record adds one latency sample.
func (h *Histogram) Record(d time.Duration) {
	h.mu.Lock()
	h.count++
	h.sum += d
	h.mu.Unlock()
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 { h.mu.Lock(); defer h.mu.Unlock(); return h.count }

// Mean returns the average latency.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Workload describes one benchmark phase mix.
type Workload struct {
	// Records is the number of pre-loaded rows.
	Records int64
	// UpdateFraction is the probability an operation is an update
	// (0.75 and 0.95 in the paper's Figure 12).
	UpdateFraction float64
	// ValueSize is the row payload size (1 KB in the paper).
	ValueSize int
	// Dist picks keys; nil means Zipfian(records, 0.99), the paper's
	// default ("Zipfian distribution with the co-efficient set to 1.0").
	Dist Generator
}

// Result summarises one run.
type Result struct {
	Ops        int64
	Elapsed    time.Duration
	Throughput float64 // ops/sec
	UpdateLat  *Histogram
	ReadLat    *Histogram
}

// Load bulk-inserts records over workers parallel clients, returning
// the elapsed wall time (Figure 11's metric).
func Load(db DB, records int64, valueSize, workers int, seed int64) (time.Duration, error) {
	if workers <= 0 {
		workers = 1
	}
	start := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	per := records / int64(workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			value := make([]byte, valueSize)
			rng.Read(value)
			lo := int64(w) * per
			hi := lo + per
			if w == workers-1 {
				hi = records
			}
			for i := lo; i < hi; i++ {
				if err := db.Insert(Key(i), value); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return 0, err
	}
	return time.Since(start), nil
}

// Run executes ops operations of the workload mix over workers parallel
// clients (each client submits a constant workload: a completed
// operation is immediately followed by a new one, §4.1).
func Run(db DB, w Workload, ops int64, workers int, seed int64) (Result, error) {
	if workers <= 0 {
		workers = 1
	}
	dist := w.Dist
	if dist == nil {
		dist = NewZipfian(w.Records, 0.99)
	}
	res := Result{UpdateLat: &Histogram{}, ReadLat: &Histogram{}}
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	per := ops / int64(workers)
	start := time.Now()
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + 7919*int64(c)))
			value := make([]byte, w.ValueSize)
			rng.Read(value)
			n := per
			if c == workers-1 {
				n = ops - per*int64(workers-1)
			}
			for i := int64(0); i < n; i++ {
				key := Key(dist.Next(rng))
				opStart := time.Now()
				if rng.Float64() < w.UpdateFraction {
					if err := db.Update(key, value); err != nil {
						errCh <- err
						return
					}
					res.UpdateLat.Record(time.Since(opStart))
				} else {
					if err := db.Read(key); err != nil {
						errCh <- fmt.Errorf("read %s: %w", key, err)
						return
					}
					res.ReadLat.Record(time.Since(opStart))
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return res, err
	}
	res.Elapsed = time.Since(start)
	res.Ops = res.UpdateLat.Count() + res.ReadLat.Count()
	if res.Elapsed > 0 {
		res.Throughput = float64(res.Ops) / res.Elapsed.Seconds()
	}
	return res, nil
}
