// Quickstart: open an embedded LogBase, write, read, read history,
// iterate a range, run a transaction, and survive a crash — all
// through the unified Store interface (the same code runs against a
// cluster via logbase.NewClusterClient).
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	logbase "repro"
)

func main() {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "logbase-quickstart-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Open an embedded instance: 3 simulated datanodes, 3-way
	// replicated log, read buffer on.
	db, err := logbase.Open(dir, logbase.Options{ReadCacheBytes: 8 << 20})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Declare a table with two column groups (vertical partitions).
	if err := db.CreateTable("users", "profile", "activity"); err != nil {
		log.Fatal(err)
	}

	// Writes are one durable log append each — no data files, no flush.
	if err := db.Put(ctx, "users", "profile", []byte("alice"), []byte(`{"name":"Alice"}`)); err != nil {
		log.Fatal(err)
	}
	db.Put(ctx, "users", "profile", []byte("alice"), []byte(`{"name":"Alice","city":"Istanbul"}`))
	db.Put(ctx, "users", "activity", []byte("alice"), []byte("clicked:checkout"))

	// Bulk load through a WriteBatch: buffered rows flush as ONE append
	// sweep through the log instead of one durable append per record.
	batch := db.Batch()
	for i := 0; i < 100; i++ {
		batch.Put("users", "profile", []byte(fmt.Sprintf("user%03d", i)), []byte(`{}`))
	}
	if err := batch.Flush(ctx); err != nil {
		log.Fatal(err)
	}

	row, err := db.Get(ctx, "users", "profile", []byte("alice"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("latest profile (version %d): %s\n", row.TS, row.Value)

	// Range reads are pull-based iterators; Close releases the scan.
	it := db.Scan(ctx, "users", "profile", []byte("user000"), []byte("user005"))
	for it.Next() {
		fmt.Printf("  scanned %s\n", it.Row().Key)
	}
	if err := it.Close(); err != nil {
		log.Fatal(err)
	}

	// Every version is retained in the log; read them all, or as-of a
	// timestamp.
	versions, _ := db.Read(ctx, "users", "profile", []byte("alice"), logbase.WithAllVersions())
	for _, v := range versions {
		fmt.Printf("  version %d: %s\n", v.TS, v.Value)
	}
	old, _ := db.Read(ctx, "users", "profile", []byte("alice"), logbase.WithSnapshot(versions[0].TS))
	fmt.Printf("as-of first write: %s\n", old[0].Value)

	// Snapshot-isolation transaction across column groups.
	err = logbase.RunTx(ctx, db, func(tx logbase.Tx) error {
		act, err := tx.Get(ctx, "users", "activity", []byte("alice"))
		if err != nil {
			return err
		}
		return tx.Put("users", "profile", []byte("alice"),
			append([]byte(`{"lastActivity":"`), append(act, '"', '}')...))
	})
	if err != nil {
		log.Fatal(err)
	}
	row, _ = db.Get(ctx, "users", "profile", []byte("alice"))
	fmt.Printf("after txn: %s\n", row.Value)

	// Crash and recover: checkpoint bounds recovery to an index reload
	// plus a redo of the log tail.
	if err := db.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	db.Put(ctx, "users", "profile", []byte("bob"), []byte(`{"name":"Bob"}`)) // after checkpoint

	db2, err := db.Reopen() // simulated restart: memory state gone
	if err != nil {
		log.Fatal(err)
	}
	db2.CreateTable("users", "profile", "activity")
	st, err := db2.Recover()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered: checkpoint=%v indexes=%d tailRecords=%d in %v\n",
		st.UsedCheckpoint, st.IndexesLoaded, st.RecordsScanned, st.Elapsed)
	bob, err := db2.Get(ctx, "users", "profile", []byte("bob"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bob survived the crash: %s\n", bob.Value)
}
