package bench

// scan-pushdown: a limited + key-filtered cluster scan executed twice
// over the same rows — once with the options pushed down to the tablet
// servers (the Store read path), once the old way (stream everything,
// filter client-side, stop at the limit). The claim is about data
// movement, so it is stated in rows fetched from the log on the
// servers: the push-down arm fetches exactly the rows it delivers, the
// client-filter arm at least scanPushRatio times as many. Modelled disk
// µs per delivered row rides along.

import (
	"context"
	"fmt"
	"os"

	logbase "repro"
	"repro/internal/core"
	"repro/internal/readopt"
)

const (
	// scanPushLimit is the row budget of both scans.
	scanPushLimit = 100
	// scanPushMinRows is the smallest table in which scanPushPred has
	// scanPushLimit matches (the hundredth is key 5770), so the limit
	// binds; smaller scales are raised to it.
	scanPushMinRows = 8000
	// scanPushRatio is the floor on client-filter / push-down rows
	// fetched (61x at scanPushMinRows).
	scanPushRatio = 10
)

// scanPushPred is the selective key predicate: keys containing "77"
// (under 2% of the keyspace).
func scanPushPred() *readopt.Predicate { return readopt.Contains([]byte("77")) }

// ScanPushdown is the registry experiment.
func ScanPushdown(s Scale) (Table, error) {
	t := Table{
		ID:     "scan-pushdown",
		Title:  "Scan push-down: LIMIT + key predicate at the tablet servers vs client-side filtering",
		Header: []string{"arm", "rows delivered", "rows fetched from log", "disk µs/row", "wall µs/row"},
		Shape:  "push-down fetches exactly LIMIT rows from the log; client-side filtering fetches >= 10x that",
	}
	c, dir, err := newBenchCluster(t.ID, nil)
	if err != nil {
		return t, err
	}
	defer os.RemoveAll(dir)
	defer c.Close()
	ctx := context.Background()
	b := logbase.NewClusterClient(c).Batch()
	val := value(s.ValueSize, 7)
	for i := 0; i < max(s.Rows, scanPushMinRows); i++ {
		b.Put("usertable", "f0", key(i), val)
		if b.Len() >= 1024 {
			if err := b.Flush(ctx); err != nil {
				return t, err
			}
		}
	}
	if err := b.Flush(ctx); err != nil {
		return t, err
	}

	cl := c.NewClient()
	var rows int
	scan := func(arm string, opts readopt.Options, visit func(core.Row) bool) (sample, error) {
		rows = 0
		m, err := measured(c.Clock(), scanPushLimit, func() error {
			return cl.ScanOpts(ctx, "usertable", "f0", nil, nil, opts, visit)
		}, clusterServers(c)...)
		if err == nil && rows != scanPushLimit {
			err = fmt.Errorf("%s delivered %d rows, want %d", arm, rows, scanPushLimit)
		}
		t.Rows = append(t.Rows, []string{arm, fmt.Sprint(rows), fmt.Sprint(m.logReads),
			f2(m.diskUS()), f2(m.wallUS())})
		return m, err
	}
	// Push-down: limit + key predicate evaluated at the tablet servers.
	push, err := scan("push-down", readopt.Options{Limit: scanPushLimit, Key: scanPushPred()},
		func(core.Row) bool { rows++; return true })
	if err != nil {
		return t, err
	}
	// Client-side: every row streams out of the servers, the client
	// filters and truncates.
	pred := scanPushPred()
	client, err := scan("client-filter", readopt.Options{}, func(r core.Row) bool {
		if pred.Match(r.Key) {
			rows++
		}
		return rows < scanPushLimit
	})
	if err != nil {
		return t, err
	}
	t.Hold = push.logReads == scanPushLimit && client.logReads >= scanPushRatio*scanPushLimit
	return t, nil
}
