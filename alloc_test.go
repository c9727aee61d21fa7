package logbase_test

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"strings"
	"testing"

	logbase "repro"
	"repro/internal/readopt"
	"repro/internal/textproto"
)

// TestAllocBudget is the client's allocation ceiling per key operation,
// on a DB and on a 3-server cluster: a Put and a Get of a 256 B value,
// a LIMIT-10 Scan drained and closed, a RunTx that reads one key and
// writes two, the same LIMIT-10 Scan once Compact has moved every row
// into sorted segments (the clustered read), and the Put again on a
// store with an open changefeed nobody reads. Keys are built before
// the measured closures. Each ceiling is the measured value: lower it
// when a change removes an allocation; a change that adds one fails
// here.
func TestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, tc := range []struct {
		name                           string
		open                           func(t *testing.T) *logbase.ClusterClient
		put, get, scan, txn, clustered float64
	}{
		{"embedded", func(t *testing.T) *logbase.ClusterClient {
			db, err := logbase.Open(t.TempDir(), logbase.Options{})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			return db.ClusterClient
		}, 4, 10, 36, 35, 38},
		{"cluster", func(t *testing.T) *logbase.ClusterClient {
			c, err := logbase.NewCluster(t.TempDir(), logbase.ClusterConfig{NumServers: 3})
			if err != nil {
				t.Fatalf("NewCluster: %v", err)
			}
			return logbase.NewClusterClient(c)
		}, 4, 10, 37, 35, 39},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := tc.open(t)
			defer st.Close()
			if err := st.CreateTable("t", "g"); err != nil {
				t.Fatalf("CreateTable: %v", err)
			}
			const runs, loaded = 200, 1000
			value := bytes.Repeat([]byte("v"), 256)
			keys := make([][]byte, loaded+runs+1) // AllocsPerRun adds a warm-up run
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("user%06d", i))
			}
			for _, k := range keys[:loaded] {
				if err := st.Put(bg, "t", "g", k, value); err != nil {
					t.Fatalf("Put: %v", err)
				}
			}
			measure := func(op string, ceiling float64, fn func(i int) error) {
				t.Helper()
				i := 0
				allocs := testing.AllocsPerRun(runs, func() {
					if err := fn(i); err != nil {
						t.Fatalf("%s: %v", op, err)
					}
					i++
				})
				t.Logf("%s: %v allocs", op, allocs)
				if allocs > ceiling {
					t.Errorf("%s: %v allocs, want <= %v", op, allocs, ceiling)
				}
			}
			measure("put", tc.put, func(i int) error {
				return st.Put(bg, "t", "g", keys[loaded+i], value)
			})
			measure("get", tc.get, func(i int) error {
				_, err := st.Get(bg, "t", "g", keys[i])
				return err
			})
			scan := func(i int) error {
				it := st.Scan(bg, "t", "g", keys[i], nil, logbase.WithLimit(10))
				n := 0
				for it.Next() {
					n++
				}
				if n != 10 {
					return fmt.Errorf("%d rows, want 10", n)
				}
				return it.Close()
			}
			measure("scan", tc.scan, scan)
			measure("txn", tc.txn, func(i int) error {
				a, b := keys[2*i], keys[2*i+1]
				return logbase.RunTx(bg, st, func(tx logbase.Tx) error {
					if _, err := tx.Get(bg, "t", "g", a); err != nil {
						return err
					}
					if err := tx.Put("t", "g", a, value); err != nil {
						return err
					}
					return tx.Put("t", "g", b, value)
				})
			})
			if _, err := st.Compact(); err != nil {
				t.Fatalf("Compact: %v", err)
			}
			measure("clustered scan", tc.clustered, scan)

			// An open feed nobody reads costs a put nothing: the log keeps
			// the batch it wrote as its in-memory tail and wakes only a
			// waiting reader. The feed opens before the rows load, so a
			// cluster feed's pumps have filled its event channel and
			// stopped reading by the time the puts are measured.
			idle := tc.open(t)
			defer idle.Close()
			if err := idle.CreateTable("t", "g"); err != nil {
				t.Fatalf("CreateTable: %v", err)
			}
			feed, err := idle.Watch(bg, "t", "g", nil, nil, 0)
			if err != nil {
				t.Fatalf("Watch: %v", err)
			}
			defer feed.Close()
			for _, k := range keys[:loaded] {
				if err := idle.Put(bg, "t", "g", k, value); err != nil {
					t.Fatalf("Put: %v", err)
				}
			}
			measure("put with an idle open feed", tc.put, func(i int) error {
				return idle.Put(bg, "t", "g", keys[loaded+i], value)
			})
		})
	}
}

// wireStore is a DB as a textproto.Store, adapted the way
// logbase-server adapts it: the wire hands Read and Scan a decoded
// option set.
type wireStore struct{ *logbase.DB }

func (w wireStore) Read(ctx context.Context, table, group string, key []byte, opt readopt.Options) ([]textproto.Row, error) {
	return w.DB.Read(ctx, table, group, key, logbase.WithReadOptions(opt))
}

func (w wireStore) Scan(ctx context.Context, table, group string, start, end []byte, opt readopt.Options) textproto.Iterator {
	return w.DB.Scan(ctx, table, group, start, end, logbase.WithReadOptions(opt))
}

// TestWireAllocBudget is the protocol's allocation ceiling per command:
// a PUT and a GET of a 256 B value and a SCAN ... LIMIT 10, each written
// to a textproto.Serve session over net.Pipe on a DB and its reply read
// back whole. The count covers the session loop, the DB below it and
// the client's side of the pipe. Each ceiling is the measured value.
func TestWireAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	db, err := logbase.Open(t.TempDir(), logbase.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	if err := db.CreateTable("t", "g"); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	srv, cli := net.Pipe()
	served := make(chan error, 1)
	go func() { served <- textproto.Serve(context.Background(), srv, wireStore{db}) }()
	defer func() {
		cli.Close()
		<-served
	}()
	replies := bufio.NewReader(cli)
	// roundTrip sends one command line and reads its reply lines.
	roundTrip := func(cmd []byte, lines int) error {
		if _, err := cli.Write(cmd); err != nil {
			return err
		}
		for range lines {
			line, err := replies.ReadSlice('\n')
			if err != nil {
				return err
			}
			if bytes.HasPrefix(line, []byte("ERR")) {
				return fmt.Errorf("reply %q", line)
			}
		}
		return nil
	}

	const runs, loaded = 200, 1000
	value := strings.Repeat("v", 256)
	var puts, gets, scans [][]byte
	for i := range loaded + runs + 1 { // AllocsPerRun adds a warm-up run
		key := fmt.Sprintf("user%06d", i)
		puts = append(puts, []byte("PUT t g "+key+" "+value+"\n"))
		gets = append(gets, []byte("GET t g "+key+"\n"))
		scans = append(scans, []byte("SCAN t g "+key+" * LIMIT 10\n"))
	}
	for _, cmd := range puts[:loaded] {
		if err := roundTrip(cmd, 1); err != nil {
			t.Fatalf("PUT: %v", err)
		}
	}
	for _, tc := range []struct {
		op      string
		cmds    [][]byte
		lines   int // reply lines: SCAN's 10 ROWs and its END
		ceiling float64
	}{
		{"PUT", puts[loaded:], 1, 8},
		{"GET", gets, 1, 14},
		{"SCAN LIMIT 10", scans, 11, 60},
	} {
		i := 0
		allocs := testing.AllocsPerRun(runs, func() {
			if err := roundTrip(tc.cmds[i], tc.lines); err != nil {
				t.Fatalf("%s: %v", tc.op, err)
			}
			i++
		})
		t.Logf("%s: %v allocs", tc.op, allocs)
		if allocs > tc.ceiling {
			t.Errorf("%s: %v allocs, want <= %v", tc.op, allocs, tc.ceiling)
		}
	}
}
