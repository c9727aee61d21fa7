// Command logbase-cli is an interactive client for logbase-server: it
// forwards each input line over TCP and prints response lines until the
// server finishes (single-line replies, or ROW.../END for streams).
//
// Watch mode (`logbase-cli -watch`, or `logbase-cli stats --watch`)
// polls STATS on an interval and renders per-server operation rates:
// the first poll prints cumulative counters, every later poll prints
// deltas divided by the elapsed interval (writes/s, reads/s, ...)
// alongside the instantaneous layout gauges.
//
// Feed mode (`logbase-cli watch <table> [group|*] [start|*] [end|*]`)
// subscribes a changefeed with the WATCH command and prints each EVENT
// line as it arrives. -from-lsn resumes after a previously observed
// cursor (pass cursor+1), and a dropped connection is redialled
// automatically, resuming from the last printed event's cursor — the
// LSN-cursor resume contract end to end. -count bounds the events
// printed (0 = stream forever).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/textproto"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7420", "server address")
	watch := flag.Bool("watch", false, "poll STATS and render per-server rates")
	interval := flag.Duration("interval", time.Second, "watch polling interval")
	count := flag.Int("count", 0, "watch polls (or feed events) before exiting (0 = forever)")
	fromLSN := flag.Uint64("from-lsn", 0, "feed mode: resume the changefeed after this cursor (0 = from the beginning of the retained log)")
	flag.Parse()
	args := flag.Args()

	// `logbase-cli watch <table> ...` streams a changefeed, redialling
	// and resuming from the last delivered cursor if the connection
	// drops.
	if !*watch && len(args) >= 2 && strings.EqualFold(args[0], "watch") {
		pos := func(i int) string {
			if i < len(args) {
				return args[i]
			}
			return "*"
		}
		dial := func() (io.ReadWriteCloser, error) { return net.Dial("tcp", *addr) }
		if err := watchFeed(dial, os.Stdout, args[1], pos(2), pos(3), pos(4), *fromLSN, *count); err != nil {
			log.Fatalf("watch: %v", err)
		}
		return
	}

	conn, err := net.Dial("tcp", *addr)
	if err != nil {
		log.Fatalf("dial %s: %v", *addr, err)
	}
	defer conn.Close()

	// `logbase-cli stats --watch` is the spelled-out form of -watch.
	if *watch || (len(args) >= 2 && strings.EqualFold(args[0], "stats") && args[1] == "--watch") {
		if err := watchStats(conn, os.Stdout, *interval, *count); err != nil {
			log.Fatalf("watch: %v", err)
		}
		return
	}

	repl(conn)
}

func repl(conn net.Conn) {
	server := bufio.NewScanner(conn)
	server.Buffer(make([]byte, 1<<20), 1<<20)
	stdin := bufio.NewScanner(os.Stdin)

	fmt.Println("logbase-cli connected; commands: CREATE PUT GET GETAT VERSIONS DEL SCAN QUERY WATCH MVIEW CHECKPOINT COMPACT SCRUB STATS QUIT")
	fmt.Println("  SCAN <table> <group> <start|*> <end|*> [LIMIT <n>] [REVERSE] [AT <ts>] [PREFIX <p>]")
	fmt.Println("       [FILTER KEY|VAL PREFIX|CONTAINS <op>] [FILTER KEY|VAL RANGE <lo|*> <hi|*>] [PRIMARY] [MAXLAG <n>]   (options run server-side)")
	fmt.Println("  QUERY <table> <group> [FROM <k>] [TO <k>] [FILTER KEY|VAL <pred>]")
	fmt.Println("        [JOIN <table> <group> ON <ltable> <lexpr> <rexpr> [VIA <index>] [FROM <k>] [TO <k>] [FILTER ...]]")
	fmt.Println("        [AT <ts>] [BY <table> <expr> <prefix>] AGG <COUNT|SUM|MIN|MAX|AVG> <table> <expr|*> [AGG ...]   (exprs: KEY VAL KEY[i] VAL[i])")
	fmt.Println("  WATCH <table> <group|*> <start|*> <end|*> [FROM <lsn>] [LIMIT <n>]   (use `logbase-cli watch` for auto-resume)")
	fmt.Println("  MVIEW CREATE <name> <table> <group> <agg[,agg...]> [start|*] [end|*] [BY <n>] | MVIEW QUERY <name> | MVIEW STATS <name>")
	for {
		fmt.Print("> ")
		if !stdin.Scan() {
			return
		}
		line := strings.TrimSpace(stdin.Text())
		if line == "" {
			continue
		}
		if _, err := fmt.Fprintln(conn, line); err != nil {
			log.Fatalf("send: %v", err)
		}
		streaming := false
		switch strings.ToUpper(strings.Fields(line)[0]) {
		case "SCAN", "VERSIONS", "QUERY", "STATS", "SCRUB", "WATCH", "MVIEW":
			streaming = true
		}
		for server.Scan() {
			resp := server.Text()
			fmt.Println(resp)
			// A streamed response ends with END/ERR; a single-line OK
			// (e.g. MVIEW CREATE) is complete on its own.
			if !streaming || strings.HasPrefix(resp, "END ") || strings.HasPrefix(resp, "ERR ") || strings.HasPrefix(resp, "OK ") {
				break
			}
		}
		if strings.EqualFold(line, "quit") {
			return
		}
	}
}

// reconnectDelay paces feed-mode redials after a dropped connection
// (shortened in tests).
var reconnectDelay = 200 * time.Millisecond

// watchFeed streams a changefeed: it dials, issues WATCH, and prints
// every EVENT line. If the connection drops mid-stream it redials and
// resumes with FROM <last cursor>+1, so the printed stream never skips
// or repeats an event across reconnects — the wire form of the
// LSN-cursor resume contract. maxEvents bounds the events printed (0 =
// forever); an ERR reply (e.g. a cursor fallen behind the compaction
// horizon) is terminal.
func watchFeed(dial func() (io.ReadWriteCloser, error), out io.Writer, table, group, start, end string, fromLSN uint64, maxEvents int) error {
	next := fromLSN
	seen := 0
	for first := true; ; first = false {
		if !first {
			time.Sleep(reconnectDelay)
		}
		conn, err := dial()
		if err != nil {
			return err
		}
		cmd := fmt.Sprintf("WATCH %s %s %s %s", table, group, start, end)
		if next > 0 {
			cmd += fmt.Sprintf(" FROM %d", next)
		}
		if maxEvents > 0 {
			cmd += fmt.Sprintf(" LIMIT %d", maxEvents-seen)
		}
		if _, err := fmt.Fprintln(conn, cmd); err != nil {
			conn.Close()
			continue // server bounced between dial and write: redial
		}
		sc := bufio.NewScanner(conn)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		done := false
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "ERR "):
				conn.Close()
				return fmt.Errorf("server: %s", line)
			case strings.HasPrefix(line, "EVENT "):
				fmt.Fprintln(out, line)
				if cur, ok := eventCursor(line); ok {
					next = cur + 1
				}
				seen++
				if maxEvents > 0 && seen >= maxEvents {
					done = true
				}
			case strings.HasPrefix(line, "END "):
				done = done || (maxEvents > 0 && seen >= maxEvents)
			}
			if done {
				break
			}
		}
		conn.Close()
		if done {
			return nil
		}
		// Stream ended without satisfying the request (connection
		// dropped): redial and resume from the cursor.
	}
}

// eventCursor extracts the cursor column from an EVENT line
// ("EVENT <kind> <group> <key> <ts> <lsn> <cursor> [value]").
func eventCursor(line string) (uint64, bool) {
	fields := strings.Fields(line)
	if len(fields) < 7 {
		return 0, false
	}
	cur, err := strconv.ParseUint(fields[6], 10, 64)
	if err != nil {
		return 0, false
	}
	return cur, true
}

// rateKeys are the cumulative counters rendered as per-second rates;
// everything else STATS reports is instantaneous and rendered as-is.
var rateKeys = []string{"writes", "reads", "deletes", "log_reads", "cache_hits", "cache_misses", "compactions"}

// watchStats polls STATS over rw every interval and writes one line per
// server per poll to out. count bounds the polls (0 = until the
// connection drops).
func watchStats(rw io.ReadWriter, out io.Writer, interval time.Duration, count int) error {
	if interval <= 0 {
		interval = time.Second
	}
	sc := bufio.NewScanner(rw)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	prev := map[string]map[string]float64{}
	prevAt := time.Now()
	for poll := 0; count == 0 || poll < count; poll++ {
		if poll > 0 {
			time.Sleep(interval)
		}
		if _, err := fmt.Fprintln(rw, "STATS"); err != nil {
			return err
		}
		cur := map[string]map[string]float64{}
		var order []string
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "END ") {
				break
			}
			if strings.HasPrefix(line, "ERR ") {
				return fmt.Errorf("server: %s", line)
			}
			if srv, kv, ok := textproto.ParseStatLine(line); ok {
				cur[srv] = kv
				order = append(order, srv)
			}
		}
		if len(cur) == 0 {
			return fmt.Errorf("no STAT lines in STATS reply (connection closed?)")
		}
		now := time.Now()
		elapsed := now.Sub(prevAt).Seconds()
		sort.Strings(order)
		for _, srv := range order {
			kv := cur[srv]
			var b strings.Builder
			fmt.Fprintf(&b, "%-10s", srv)
			if _, isReplica := kv["replica_applied_lsn"]; isReplica {
				// Replica lines: shipping lag plus the per-poll deltas of
				// the applied cursor and reads served.
				fmt.Fprintf(&b, " lag_records=%.0f lag_seconds=%.1f watermark_ts=%.0f gen=%.0f",
					kv["replica_lag_records"], kv["replica_lag_seconds"],
					kv["replica_watermark_ts"], kv["replica_generation"])
				if last, ok := prev[srv]; ok && elapsed > 0 {
					fmt.Fprintf(&b, " applied/s=%.1f reads/s=%.1f",
						(kv["replica_applied_lsn"]-last["replica_applied_lsn"])/elapsed,
						(kv["replica_reads_served"]-last["replica_reads_served"])/elapsed)
				} else {
					fmt.Fprintf(&b, " applied_lsn=%.0f reads_served=%.0f",
						kv["replica_applied_lsn"], kv["replica_reads_served"])
				}
				fmt.Fprintln(out, b.String())
				continue
			}
			if last, ok := prev[srv]; ok && elapsed > 0 {
				for _, k := range rateKeys {
					fmt.Fprintf(&b, " %s/s=%.1f", k, (kv[k]-last[k])/elapsed)
				}
			} else {
				for _, k := range rateKeys {
					fmt.Fprintf(&b, " %s=%.0f", k, kv[k])
				}
			}
			fmt.Fprintf(&b, " sorted_frac=%.3f garbage_frac=%.3f segments=%.0f log_bytes=%.0f",
				kv["sorted_frac"], kv["garbage_frac"], kv["segments"], kv["log_bytes"])
			fmt.Fprintln(out, b.String())
		}
		prev, prevAt = cur, now
	}
	return nil
}
