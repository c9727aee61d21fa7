// Recovery: demonstrates the paper's §3.8 checkpoint/recovery story.
// The same crash is recovered twice — once from a checkpoint (index
// reload + short redo of the tail) and once by scanning the whole log —
// and the timings are compared, the contrast behind Figure 18.
//
//	go run ./examples/recovery
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	logbase "repro"
)

const rows = 30000

func run(withCheckpoint bool) {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "logbase-recovery-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := logbase.Open(dir, logbase.Options{})
	if err != nil {
		log.Fatal(err)
	}
	db.CreateTable("data", "g")

	// Load in WriteBatch sweeps of 1000 rows: far fewer durable
	// appends than per-record Puts, same recovery semantics.
	val := make([]byte, 512)
	batch := db.Batch()
	for i := 0; i < rows; i++ {
		batch.Put("data", "g", []byte(fmt.Sprintf("row%08d", i)), val)
		if batch.Len() >= 1000 {
			if err := batch.Flush(ctx); err != nil {
				log.Fatal(err)
			}
		}
		// Checkpoint at the halfway threshold (the paper checkpoints at
		// 500 MB and crashes between 600 and 900 MB).
		if withCheckpoint && i == rows/2 {
			if err := batch.Flush(ctx); err != nil {
				log.Fatal(err)
			}
			if err := db.Checkpoint(); err != nil {
				log.Fatal(err)
			}
		}
	}
	if err := batch.Flush(ctx); err != nil {
		log.Fatal(err)
	}
	// Delete a row post-checkpoint: the invalidated log entry must keep
	// it dead after recovery even though the checkpointed index still
	// contains it.
	db.Delete(ctx, "data", "g", []byte("row00000007"))

	// Crash: all in-memory state (indexes, caches) is gone.
	db2, err := db.Reopen()
	if err != nil {
		log.Fatal(err)
	}
	db2.CreateTable("data", "g")
	st, err := db2.Recover()
	if err != nil {
		log.Fatal(err)
	}
	mode := "full log scan (no checkpoint)"
	if st.UsedCheckpoint {
		mode = fmt.Sprintf("checkpoint reload (%d indexes) + tail redo", st.IndexesLoaded)
	}
	fmt.Printf("%-44s: %8v  (%d tail records replayed, %d entries restored)\n",
		mode, st.Elapsed.Round(st.Elapsed/100+1), st.RecordsScanned, st.EntriesRestored)

	// Verify correctness either way.
	if _, err := db2.Get(ctx, "data", "g", []byte("row00000007")); err == nil {
		log.Fatal("deleted row resurrected")
	}
	for _, probe := range []int{0, rows / 2, rows - 1} {
		key := []byte(fmt.Sprintf("row%08d", probe))
		if probe == 7 {
			continue
		}
		if _, err := db2.Get(ctx, "data", "g", key); err != nil {
			log.Fatalf("row %d lost: %v", probe, err)
		}
	}
}

func main() {
	fmt.Printf("recovering %d rows after a simulated crash:\n\n", rows)
	run(true)
	run(false)
	fmt.Println("\nboth recoveries returned identical, correct data; the checkpointed one only replayed the tail")
}
