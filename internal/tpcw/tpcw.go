// Package tpcw models the TPC-W webshop workload slice the paper uses
// (§4.4): three mixes — browsing (5% update transactions), shopping
// (20%) and ordering (50%) — where a read-only transaction queries one
// product's details from the item table and an update transaction
// bundles a read of the user's shopping cart with a write into the
// orders table.
//
// The driver is written once against the unified logbase.Store
// interface, so the exact same workload code exercises the embedded
// *logbase.DB and the cluster *logbase.ClusterClient.
package tpcw

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	logbase "repro"
	"repro/internal/cluster"
	"repro/internal/ycsb"
)

// Mix names a TPC-W transaction mix.
type Mix struct {
	Name       string
	UpdateFrac float64
}

// The paper's three mixes.
var (
	Browsing = Mix{Name: "browsing", UpdateFrac: 0.05}
	Shopping = Mix{Name: "shopping", UpdateFrac: 0.20}
	Ordering = Mix{Name: "ordering", UpdateFrac: 0.50}
)

// Mixes lists them in the paper's order.
var Mixes = []Mix{Browsing, Shopping, Ordering}

// Tables returns the schema the workload needs; pass these to
// cluster.Config.Tables (or create them via Store.CreateTable on an
// embedded DB).
func Tables() []cluster.TableSpec {
	return []cluster.TableSpec{
		{Name: "item", Groups: []string{"detail"}},
		{Name: "customer", Groups: []string{"cart"}},
		{Name: "orders", Groups: []string{"order"}},
	}
}

func itemKey(i int64) []byte     { return []byte(fmt.Sprintf("item%010d", i)) }
func customerKey(c int64) []byte { return []byte(fmt.Sprintf("cust%010d", c)) }
func orderKey(c, seq int64) []byte {
	return []byte(fmt.Sprintf("cust%010d/order%08d", c, seq))
}

// Load bulk-loads items and customers (the paper loads 1M products and
// customers per node; scale down via counts). Each worker buffers rows
// in a WriteBatch and flushes in sweeps — the bulk-load path.
func Load(st logbase.Store, items, customers int64, workers int) error {
	if workers <= 0 {
		workers = 1
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	errCh := make(chan error, 2*workers)
	loadRange := func(n int64, put func(b *logbase.WriteBatch, i int64)) {
		per := n / int64(workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				batch := st.Batch()
				lo := int64(w) * per
				hi := lo + per
				if w == workers-1 {
					hi = n
				}
				for i := lo; i < hi; i++ {
					put(batch, i)
					if batch.Len() >= 256 {
						if err := batch.Flush(ctx); err != nil {
							errCh <- err
							return
						}
					}
				}
				if err := batch.Flush(ctx); err != nil {
					errCh <- err
				}
			}(w)
		}
	}
	detail := []byte(`{"title":"product","price":9.99,"stock":100}`)
	cart := []byte(`{"items":[],"total":0}`)
	loadRange(items, func(b *logbase.WriteBatch, i int64) {
		b.Put("item", "detail", itemKey(i), detail)
	})
	loadRange(customers, func(b *logbase.WriteBatch, i int64) {
		b.Put("customer", "cart", customerKey(i), cart)
	})
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return err
	}
	return nil
}

// Result summarises one mix run.
type Result struct {
	Mix        Mix
	Txns       int64
	Elapsed    time.Duration
	Throughput float64 // transactions/sec
	Latency    *ycsb.Histogram
	Aborted    int64
}

// Run stress-tests the store with one client thread per worker
// continuously submitting transactions of the mix (§4.4).
func Run(st logbase.Store, mix Mix, items, customers, txns int64, workers int, seed int64) (Result, error) {
	if workers <= 0 {
		workers = 1
	}
	res := Result{Mix: mix, Latency: &ycsb.Histogram{}}
	var wg sync.WaitGroup
	var aborted int64
	var abortedMu sync.Mutex
	errCh := make(chan error, workers)
	itemDist := ycsb.NewZipfian(items, 0.99)
	per := txns / int64(workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + 104729*int64(w)))
			n := per
			if w == workers-1 {
				n = txns - per*int64(workers-1)
			}
			for i := int64(0); i < n; i++ {
				txStart := time.Now()
				var err error
				if rng.Float64() < mix.UpdateFrac {
					err = orderRequest(st, rng.Int63n(customers), i, w)
				} else {
					err = productDetail(st, itemDist.Next(rng))
				}
				if err != nil {
					if errors.Is(err, logbase.ErrConflict) {
						abortedMu.Lock()
						aborted++
						abortedMu.Unlock()
						continue
					}
					errCh <- err
					return
				}
				res.Latency.Record(time.Since(txStart))
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return res, err
	}
	res.Elapsed = time.Since(start)
	res.Txns = res.Latency.Count()
	res.Aborted = aborted
	if res.Elapsed > 0 {
		res.Throughput = float64(res.Txns) / res.Elapsed.Seconds()
	}
	return res, nil
}

// productDetail is the read-only transaction: one read of a product's
// details.
func productDetail(st logbase.Store, item int64) error {
	ctx := context.Background()
	return logbase.RunTx(ctx, st, func(tx logbase.Tx) error {
		_, err := tx.Get(ctx, "item", "detail", itemKey(item))
		return err
	})
}

// orderRequest is the update transaction: read the customer's shopping
// cart, then write one row into the orders table. The order key shares
// the customer's prefix, so both rows usually land on one tablet (the
// entity-group partitioning of §3.2) and commit without 2PC.
func orderRequest(st logbase.Store, customer, seq int64, worker int) error {
	ctx := context.Background()
	return logbase.RunTx(ctx, st, func(tx logbase.Tx) error {
		cart, err := tx.Get(ctx, "customer", "cart", customerKey(customer))
		if err != nil {
			return err
		}
		oKey := orderKey(customer, seq*1000+int64(worker))
		order := append([]byte(`{"from-cart":`), cart...)
		order = append(order, '}')
		return tx.Put("orders", "order", oKey, order)
	})
}
