// Secondary index: the paper's named future work (§5), implemented as
// an extension. A social-network profile store is indexed by city, so
// "everyone in <city>" becomes an index lookup plus batched log reads
// of the matches instead of a full scan — and the index stays correct through
// updates, deletes and transactions. The same API exists cluster-wide
// via ClusterClient.RegisterSecondaryIndex / LookupSecondary.
//
//	go run ./examples/secondaryindex
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	logbase "repro"
)

var cities = []string{"tokyo", "paris", "lima", "oslo", "sydney"}

// cityOf pulls the "city=<x>;" attribute out of a profile value.
func cityOf(value []byte) []byte {
	i := bytes.Index(value, []byte("city="))
	if i < 0 {
		return nil
	}
	rest := value[i+5:]
	if j := bytes.IndexByte(rest, ';'); j >= 0 {
		return rest[:j]
	}
	return rest
}

func main() {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "logbase-secondary-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := logbase.Open(dir, logbase.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	db.CreateTable("profiles", "main")

	// Bulk-load 10k profiles, then register the index (it backfills).
	rng := rand.New(rand.NewSource(7))
	const users = 10000
	batch := db.Batch()
	for i := 0; i < users; i++ {
		key := []byte(fmt.Sprintf("user%06d", i))
		val := []byte(fmt.Sprintf("name=u%d;city=%s;", i, cities[rng.Intn(len(cities))]))
		batch.Put("profiles", "main", key, val)
		if batch.Len() >= 1000 {
			if err := batch.Flush(ctx); err != nil {
				log.Fatal(err)
			}
		}
	}
	if err := batch.Flush(ctx); err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	if err := db.RegisterSecondaryIndex("by-city", "profiles", "main", cityOf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("backfilled by-city index over %d profiles in %v\n", users, time.Since(start).Round(time.Millisecond))

	// Indexed lookup vs full scan (pull-based iterator).
	start = time.Now()
	rows, err := db.LookupSecondary("by-city", []byte("lima"))
	if err != nil {
		log.Fatal(err)
	}
	idxTime := time.Since(start)

	start = time.Now()
	scanHits := 0
	it := db.FullScan(ctx, "profiles", "main")
	for it.Next() {
		if bytes.Equal(cityOf(it.Row().Value), []byte("lima")) {
			scanHits++
		}
	}
	if err := it.Close(); err != nil {
		log.Fatal(err)
	}
	scanTime := time.Since(start)
	fmt.Printf("residents of lima: %d via index (%v) vs %d via full scan (%v)\n",
		len(rows), idxTime.Round(time.Microsecond), scanHits, scanTime.Round(time.Microsecond))
	if len(rows) != scanHits {
		log.Fatal("index and scan disagree")
	}

	// The index follows updates: pick a lima resident and move them.
	mover := append([]byte(nil), rows[0].Key...)
	before := len(rows)
	db.Put(ctx, "profiles", "main", mover, []byte("name=moved;city=oslo;"))
	rows, _ = db.LookupSecondary("by-city", []byte("lima"))
	osloRows, _ := db.LookupSecondary("by-city", []byte("oslo"))
	fmt.Printf("after %s moved: lima %d -> %d, oslo has them: %v\n",
		mover, before, len(rows), contains(osloRows, mover))
	if len(rows) != before-1 || !contains(osloRows, mover) {
		log.Fatal("secondary index not maintained on update")
	}

	// Range over the attribute: all cities from "oslo" to "sydney".
	counts := map[string]int{}
	db.ScanSecondaryRange("by-city", []byte("oslo"), []byte("t"), func(sec []byte, r logbase.Row) bool {
		counts[string(sec)]++
		return true
	})
	fmt.Printf("attribute-range [oslo, t): %v\n", counts)
}

func contains(rows []logbase.Row, key []byte) bool {
	for _, r := range rows {
		if bytes.Equal(r.Key, key) {
			return true
		}
	}
	return false
}
