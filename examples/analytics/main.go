// Analytics: snapshot-consistent queries over the live store — load a
// small orders table, aggregate it, group it, keep writing and then
// time-travel back to a snapshot that ignores the later writes. The
// whole scenario is one function taking the logbase.Store interface,
// run first against an embedded DB and then, unmodified, against a
// simulated 4-server cluster (where queries scatter-gather across all
// tablet servers at one global timestamp).
//
//	go run ./examples/analytics
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	logbase "repro"
)

var regions = []string{"eu", "jp", "us", "za"}

// scenario is written once against Store and knows nothing about which
// backend it drives.
func scenario(ctx context.Context, st logbase.Store) {
	if err := st.CreateTable("orders", "amount"); err != nil {
		log.Fatal(err)
	}

	// 1000 orders across 4 regions, bulk-loaded through a WriteBatch
	// (one append sweep per tablet server); amount = order number.
	batch := st.Batch()
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("%s/%06d", regions[i%len(regions)], i)
		batch.Put("orders", "amount", []byte(key), []byte(fmt.Sprint(i)))
	}
	if err := batch.Flush(ctx); err != nil {
		log.Fatal(err)
	}

	// Aggregate everything at the current snapshot.
	amount := logbase.ValExpr()
	res, err := st.Exec(ctx, logbase.Q("orders").Group("amount").
		Agg(logbase.Count).
		AggOf(logbase.Sum, "orders", amount).
		AggOf(logbase.Avg, "orders", amount))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("all orders: count=%.0f sum=%.0f avg=%.1f (snapshot ts %d)\n",
		res.Value(0, logbase.Count), res.Value(1, logbase.Sum), res.Value(2, logbase.Avg), res.TS)

	// GROUP BY region (the two key bytes before '/').
	res, err = st.Exec(ctx, logbase.Q("orders").Group("amount").GroupBy(2).
		Agg(logbase.Count).AggOf(logbase.Max, "orders", amount))
	if err != nil {
		log.Fatal(err)
	}
	for _, g := range res.Groups {
		fmt.Printf("region %s: %d orders, max amount %.0f\n", g.Key, g.Rows, g.Aggs[1].Value(logbase.Max))
	}

	// Every result is stamped with the snapshot it ran at. Remember
	// that timestamp, then keep writing: a statement pinned At it must
	// not move.
	pin := res.TS
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("us/%06d", 100000+i)
		if err := st.Put(ctx, "orders", "amount", []byte(key), []byte("1000000")); err != nil {
			log.Fatal(err)
		}
	}
	count := func() *logbase.Statement { return logbase.Q("orders").Group("amount").Agg(logbase.Count) }
	now, err := st.Exec(ctx, count())
	if err != nil {
		log.Fatal(err)
	}
	// Time travel: the log keeps every version, so the past is as cheap
	// to query as the present.
	back, err := st.Exec(ctx, count().At(pin))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("time travel to ts %d: %.0f orders; a fresh query sees %.0f\n",
		pin, back.Value(0, logbase.Count), now.Value(0, logbase.Count))

	// Push-down scan: "the 3 newest us-region orders as of the pinned
	// snapshot". Prefix, reverse order, limit, and the snapshot are all
	// evaluated at the tablet servers — three rows cross the wire, the
	// 500 post-snapshot writes stay invisible, and no client-side
	// filtering loop is needed.
	it := st.Scan(ctx, "orders", "amount", nil, nil,
		logbase.WithPrefix([]byte("us/")),
		logbase.WithReverse(),
		logbase.WithLimit(3),
		logbase.WithSnapshot(pin))
	fmt.Print("newest us orders at the snapshot:")
	for it.Next() {
		fmt.Printf(" %s=%s", it.Row().Key, it.Row().Value)
	}
	if err := it.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
}

// joinScenario runs the composable statement path end to end: a
// three-table equi-join (lineitems ⋈ customers ⋈ items) ordered by the
// greedy planner, grouped by the customer's region, revenue summed
// from the item price. It returns the rendered result so main can
// assert the embedded and cluster backends agree row for row.
func joinScenario(ctx context.Context, st logbase.Store) string {
	for _, t := range []struct{ name, group string }{
		{"customers", "info"}, {"items", "price"}, {"lineitems", "ref"},
	} {
		if err := st.CreateTable(t.name, t.group); err != nil {
			log.Fatal(err)
		}
	}
	batch := st.Batch()
	for i := 0; i < 40; i++ {
		batch.Put("customers", "info", []byte(fmt.Sprintf("c%02d", i)), []byte(regions[i%len(regions)]))
	}
	for j := 0; j < 8; j++ {
		batch.Put("items", "price", []byte(fmt.Sprintf("i%d", j)), []byte(fmt.Sprint(5*(j+1))))
	}
	for n := 0; n < 600; n++ {
		ref := fmt.Sprintf("c%02d,i%d", n%40, n%8)
		batch.Put("lineitems", "ref", []byte(fmt.Sprintf("o%04d", n)), []byte(ref))
	}
	if err := batch.Flush(ctx); err != nil {
		log.Fatal(err)
	}

	// One statement, three relations: each lineitem names its customer
	// (value field 0) and its item (value field 1).
	res, err := st.Exec(ctx, logbase.Q("lineitems").Group("ref").
		Join("customers", "info", logbase.On{Left: logbase.ValField(0), Right: logbase.KeyExpr()}).
		Join("items", "price", logbase.On{LeftTable: "lineitems", Left: logbase.ValField(1), Right: logbase.KeyExpr()}).
		GroupByExpr("customers", logbase.ValExpr(), 0).
		Agg(logbase.Count).
		AggOf(logbase.Sum, "items", logbase.ValExpr()))
	if err != nil {
		log.Fatal(err)
	}
	var b strings.Builder
	for _, g := range res.Groups {
		fmt.Fprintf(&b, "region %s: %d lineitems, revenue %.0f\n", g.Key, g.Rows, g.Aggs[1].Value(logbase.Sum))
	}
	return b.String()
}

// replicaScenario drives the WAL-shipping read replicas: a cluster
// where every tablet server ships its log to a standby, a writer that
// keeps appending past a pinned snapshot, and a scan-heavy pinned
// workload that the router serves from the replicas once their
// shipping watermark covers the pin. The pinned answers must be
// identical to the same reads forced onto the primaries with
// WithPrimary — snapshot consistency does not care who serves.
func replicaScenario(ctx context.Context, dir string) {
	c, err := logbase.NewCluster(dir, logbase.ClusterConfig{
		NumServers: 2,
		Replicas:   1, // one WAL-shipping standby per tablet server
	})
	if err != nil {
		log.Fatal(err)
	}
	cc := logbase.NewClusterClient(c)
	defer cc.Close()
	if err := cc.CreateTable("events", "payload"); err != nil {
		log.Fatal(err)
	}

	batch := cc.Batch()
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("%s/%06d", regions[i%len(regions)], i)
		batch.Put("events", "payload", []byte(key), []byte(fmt.Sprint(i)))
	}
	if err := batch.Flush(ctx); err != nil {
		log.Fatal(err)
	}

	// Pin the frontier and wait until every replica's watermark covers
	// it; from here on, pinned reads at ts <= pin are replica-eligible.
	pin := c.Coord().LastTimestamp()
	if err := c.WaitForReplicaTS(pin, 10*time.Second); err != nil {
		log.Fatal(err)
	}

	// The write workload keeps going — the pinned analytics below must
	// not see any of it, wherever they are served.
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("us/%06d", 100000+i)
		if err := cc.Put(ctx, "events", "payload", []byte(key), []byte("late")); err != nil {
			log.Fatal(err)
		}
	}

	// Scan-heavy pinned workload: aggregates and a full scan, all at
	// the pin, routed to the standbys.
	res, err := cc.Exec(ctx, logbase.Q("events").Group("payload").Agg(logbase.Count).At(pin))
	if err != nil {
		log.Fatal(err)
	}
	rows := 0
	it := cc.Scan(ctx, "events", "payload", nil, nil, logbase.WithSnapshot(pin))
	for it.Next() {
		rows++
	}
	if err := it.Close(); err != nil {
		log.Fatal(err)
	}

	// The same reads forced onto the primaries: byte-identical answers.
	prim := 0
	it = cc.Scan(ctx, "events", "payload", nil, nil,
		logbase.WithSnapshot(pin), logbase.WithPrimary())
	for it.Next() {
		prim++
	}
	if err := it.Close(); err != nil {
		log.Fatal(err)
	}
	if rows != 2000 || prim != rows || res.Value(0, logbase.Count) != float64(rows) {
		log.Fatalf("replica/primary disagree at pin %d: scan=%d primary=%d count=%.0f",
			pin, rows, prim, res.Value(0, logbase.Count))
	}

	var served int64
	for primary, stats := range cc.ReplicaStats() {
		for _, st := range stats {
			served += st.ReadsServed
			fmt.Printf("replica %s (of %s): applied_lsn=%d watermark_ts=%d reads_served=%d\n",
				st.ServerID, primary, st.AppliedLSN, st.WatermarkTS, st.ReadsServed)
		}
	}
	if served == 0 {
		log.Fatal("no pinned read was served by a replica")
	}
	fmt.Printf("replicas served %d pinned reads; primaries and replicas agree on %d rows at ts %d\n",
		served, rows, pin)
}

func main() {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "logbase-analytics-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	fmt.Println("=== embedded DB ===")
	db, err := logbase.Open(dir+"/db", logbase.Options{ReadCacheBytes: 8 << 20})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	scenario(ctx, db)

	fmt.Println("\n=== 4-server cluster, same code ===")
	c, err := logbase.NewCluster(dir+"/cluster", logbase.ClusterConfig{NumServers: 4})
	if err != nil {
		log.Fatal(err)
	}
	cc := logbase.NewClusterClient(c)
	defer cc.Close()
	scenario(ctx, cc)
	fmt.Printf("cluster ran the identical scenario across %d tablet servers\n", len(c.LiveServers()))

	fmt.Println("\n=== three-table join statement, both backends ===")
	emb := joinScenario(ctx, db)
	clu := joinScenario(ctx, cc)
	if emb != clu {
		log.Fatalf("backends disagree on the join:\nembedded:\n%s\ncluster:\n%s", emb, clu)
	}
	fmt.Print(emb)
	fmt.Println("embedded and cluster returned identical join results")

	fmt.Println("\n=== read replicas: pinned analytics off the primaries ===")
	replicaScenario(ctx, dir+"/replicated")
}
