// Stock trading: the paper's motivating write-heavy financial workload
// (§1). A burst of trades streams into the log-only store; multiversion
// reads then reconstruct each ticker's price history ("finding the
// trend of stock trading"), and account transfers run under snapshot
// isolation with first-committer-wins conflict handling.
//
//	go run ./examples/stocktrading
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"time"

	logbase "repro"
)

var tickers = []string{"AAPL", "GOOG", "MSFT", "AMZN", "NVDA"}

func main() {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "logbase-stocks-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := logbase.Open(dir, logbase.Options{GroupCommit: true, ReadCacheBytes: 4 << 20})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	// Vertical partitioning: the hot "price" group is separate from the
	// wide, rarely-read "detail" group.
	if err := db.CreateTable("trades", "price", "detail"); err != nil {
		log.Fatal(err)
	}
	if err := db.CreateTable("accounts", "balance"); err != nil {
		log.Fatal(err)
	}

	// Phase 1 — the write burst: 8 concurrent feeds, 2000 trades each
	// (group commit coalesces the concurrent appends).
	const feeds, perFeed = 8, 2000
	start := time.Now()
	var wg sync.WaitGroup
	for f := 0; f < feeds; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(f)))
			for i := 0; i < perFeed; i++ {
				sym := tickers[rng.Intn(len(tickers))]
				price := 100 + rng.Float64()*50
				if err := db.Put(ctx, "trades", "price", []byte(sym),
					[]byte(fmt.Sprintf("%.2f", price))); err != nil {
					log.Fatal(err)
				}
			}
		}(f)
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := feeds * perFeed
	fmt.Printf("ingested %d trades in %v (%.0f trades/sec, log %d bytes, index %d bytes)\n",
		total, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds(),
		db.LogSize(), db.IndexMemBytes())

	// Phase 2 — trend analysis over the multiversion history.
	for _, sym := range tickers[:2] {
		versions, err := db.Read(ctx, "trades", "price", []byte(sym), logbase.WithAllVersions())
		if err != nil {
			log.Fatal(err)
		}
		first, _ := strconv.ParseFloat(string(versions[0].Value), 64)
		last, _ := strconv.ParseFloat(string(versions[len(versions)-1].Value), 64)
		fmt.Printf("%s: %d versions, first %.2f -> last %.2f (%+.1f%%)\n",
			sym, len(versions), first, last, (last-first)/first*100)
	}

	// Phase 3 — transactional settlement: move funds between accounts;
	// concurrent transfers against the same account restart and retry.
	db.Put(ctx, "accounts", "balance", []byte("acct/buyer"), []byte("10000"))
	db.Put(ctx, "accounts", "balance", []byte("acct/seller"), []byte("0"))
	var txWG sync.WaitGroup
	for i := 0; i < 10; i++ {
		txWG.Add(1)
		go func() {
			defer txWG.Done()
			err := logbase.RunTx(ctx, db, func(tx logbase.Tx) error {
				b, err := tx.Get(ctx, "accounts", "balance", []byte("acct/buyer"))
				if err != nil {
					return err
				}
				s, err := tx.Get(ctx, "accounts", "balance", []byte("acct/seller"))
				if err != nil {
					return err
				}
				bv, _ := strconv.Atoi(string(b))
				sv, _ := strconv.Atoi(string(s))
				if err := tx.Put("accounts", "balance", []byte("acct/buyer"),
					[]byte(strconv.Itoa(bv-100))); err != nil {
					return err
				}
				return tx.Put("accounts", "balance", []byte("acct/seller"),
					[]byte(strconv.Itoa(sv+100)))
			})
			if err != nil {
				log.Fatal(err)
			}
		}()
	}
	txWG.Wait()
	buyer, _ := db.Get(ctx, "accounts", "balance", []byte("acct/buyer"))
	seller, _ := db.Get(ctx, "accounts", "balance", []byte("acct/seller"))
	fmt.Printf("after 10 concurrent transfers: buyer=%s seller=%s (conserved: %v)\n",
		buyer.Value, seller.Value, string(buyer.Value) == "9000" && string(seller.Value) == "1000")

	// Phase 4 — compaction reclaims superseded trade versions.
	st, err := db.Compact()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compaction: %d records in, %d kept, %d bytes reclaimed\n",
		st.RecordsIn, st.RecordsKept, st.BytesReclaimed)
}
