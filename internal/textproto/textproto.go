// Package textproto implements the line-oriented protocol spoken by
// cmd/logbase-server and cmd/logbase-cli: one command per line, one or
// more response lines ("OK ...", "VAL <ts> <value>", "ROW <key> <ts>
// <value>", "AGG <group> <op> <value> rows=<n>", "END <n>", "ERR
// <msg>"). It exists as a package so the protocol is unit-testable
// without sockets.
//
// SCAN carries the push-down read options on the wire:
//
//	SCAN <table> <group> [start|*] [end|*] [LIMIT n] [REVERSE]
//	     [AT ts] [PREFIX p] [FILTER KEY|VAL <predicate>]
//	     [PRIMARY] [MAXLAG n]
//
// where <predicate> is the serializable set from internal/readopt
// (PREFIX <op> | CONTAINS <op> | RANGE <lo|*> <hi|*>, operands
// %-escaped). Everything after the positional bounds is evaluated at
// the tablet server, not in the session loop. PRIMARY forces the read
// onto the primary even when a caught-up replica could serve it; MAXLAG n
// allows a replica only if its shipping cursor trails the primary log
// by at most n records (both map onto internal/readopt options and are
// meaningful only with AT on a replicated deployment).
//
// STATS streams one "STAT <server> k=v ..." line per tablet server —
// operation counters, read-buffer hits, and the compaction gauges
// (sorted_frac, garbage_frac, per-run drops/reclaims) operators watch
// to confirm background compaction is keeping up. A server with WAL-
// shipping read replicas is followed by one "STAT <replica> replica_*"
// line per replica (applied/source LSN, lag in records and seconds,
// watermark timestamp, reads served, re-bootstrap generation), which
// is how `logbase-cli stats --watch` renders per-replica lag deltas.
// COMPACT forces a whole-log compaction on every server.
//
// SCRUB verifies every server's log segments against all DFS
// replicas (record frames and sorted-segment footer CRCs): one
// "SCRUB <server> segments=.. blocks=.. replicas_read=.. repaired=..
// unrecoverable=.." line per tablet server, a "DEFECT <server>
// segment <n> offset <m>: <why>" line per range no replica
// assignment can decode, then "END repaired=<r> unrecoverable=<u>".
// Corrupt replica blocks are repaired in place from a healthy peer;
// a clean second SCRUB confirms the repair.
//
// WATCH subscribes a changefeed and streams it down the session:
//
//	WATCH <table> <group|*> <start|*> <end|*> [FROM lsn] [LIMIT n]
//
// One "EVENT <PUT|DELETE> <group> <key> <ts> <lsn> <cursor> [value]"
// line per committed mutation — historical catch-up from the retained
// log first, then a live tail. FROM resumes after a previously
// observed cursor (embedded backend; pass cursor+1). The stream ends
// with "END <n>" after LIMIT events; without LIMIT it runs until the
// client disconnects. A resume below the compaction reclaim horizon
// fails with an ERR naming the truncation — re-subscribe from 0.
//
// GETAT <table> <group> <key> <ts> and VERSIONS <table> <group> <key>
// are the point-read options on the wire: the version visible at a
// timestamp, and the key's whole history (oldest first). Both go
// through the store's one Read.
//
// QUERY runs one query statement per line, in the statement grammar of
// internal/query (select push-down, multi-table equi-joins, expression
// grouping, any number of aggregates):
//
//	QUERY <table> <group> [FROM k] [TO k] [FILTER KEY|VAL <predicate>]*
//	      [JOIN <table> <group> ON <ltable> <lexpr> <rexpr> [VIA index]
//	           [FROM k] [TO k] [FILTER KEY|VAL <predicate>]*]*
//	      [AT ts] [BY <table> <expr> <n>]
//	      AGG <agg> <table> <expr|*> [AGG ...]*
//
// where <expr> is KEY, VAL, KEY[i] or VAL[i] (comma-separated field i),
// <agg> is COUNT, SUM, MIN, MAX or AVG ("*" counts tuples), FROM/TO
// operands are %-escaped, and BY groups on an n-byte prefix of the
// expression (0 = the whole value). The line is parsed as ONE
// statement and executed by Store.Exec; join order is chosen greedily
// by the engine. The reply is one "AGG <group|-> <op> <value>
// rows=<n>" line per group × aggregate, then "END <groups> <ts>".
//
// MVIEW manages materialized aggregate views:
//
//	MVIEW CREATE <name> <table> <group> <agg[,agg...]> [start|*] [end|*] [BY n]
//	MVIEW QUERY <name>
//	MVIEW STATS <name>
//
// CREATE bootstraps the view (snapshot scan + changefeed) and returns
// once it is registered; QUERY answers "AGG <group> <op> <value>
// rows=<n>" per group × aggregate from the incrementally maintained
// state (no scan), ending "END <groups> <watermark-ts>"; STATS reports
// the view's watermark and apply counters as one STAT line.
package textproto

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/cdc"
	"repro/internal/core"
	"repro/internal/mview"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/readopt"
	"repro/internal/repl"
)

// Store is the engine surface the protocol drives: logbase.Store's
// methods with their own signatures — plus the uniform admin surface —
// so both backends satisfy it through one adapter that differs only
// where the wire hands over an already-decoded readopt.Options (Read
// and Scan).
type Store interface {
	CreateTable(name string, groups ...string) error
	Put(ctx context.Context, table, group string, key, value []byte) error
	Get(ctx context.Context, table, group string, key []byte) (Row, error)
	// Read is the point read behind GETAT (opt.Snapshot) and VERSIONS
	// (opt.AllVersions).
	Read(ctx context.Context, table, group string, key []byte, opt readopt.Options) ([]Row, error)
	Delete(ctx context.Context, table, group string, key []byte) error
	// Scan returns a pull-based iterator over the visible version of
	// each key in [start, end) with the push-down options applied at
	// the storage layer; the session streams it to exhaustion (opt
	// carries the row limit) and Closes it.
	Scan(ctx context.Context, table, group string, start, end []byte, opt readopt.Options) Iterator
	// Exec runs one query statement (the QUERY command). Each result
	// group carries one partial per statement aggregate, in order.
	Exec(ctx context.Context, stmt *query.Statement) (query.Result, error)
	// Watch subscribes a changefeed (the WATCH command); the session
	// streams the feed and Closes it.
	Watch(ctx context.Context, table, group string, start, end []byte, fromLSN uint64, opts ...cdc.Options) (cdc.Feed, error)
	// CreateMView, MViewQuery and MViewStats are the MVIEW subcommands.
	CreateMView(ctx context.Context, spec mview.Spec) error
	MViewQuery(ctx context.Context, name string) (query.Result, error)
	MViewStats(name string) (mview.Stats, error)
	// Checkpoint, Compact and Scrub fan out over every tablet server.
	Checkpoint() error
	Compact() (core.CompactionStats, error)
	Scrub() ([]core.ScrubReport, error)
	// Stats returns one mutually-consistent snapshot per tablet server
	// (taken in one pass, not counter-by-counter); ReplicaStats the
	// shipping state of each server's read replicas, keyed by primary
	// server id.
	Stats() []core.StatsView
	ReplicaStats() map[string][]repl.Stats
	// Metrics returns the engine's metrics registry, or nil when the
	// backend exposes none. A non-nil registry makes STATS stream the
	// whole registry as METRIC lines after the per-server STAT lines.
	Metrics() *obs.Registry
}

// Iterator is the pull-based row stream the protocol consumes; it has
// logbase.Iterator's method set.
type Iterator interface {
	Next() bool
	Row() Row
	Err() error
	Close() error
}

// Row is logbase.Row (the root package is not imported here).
type Row = core.Row

// Serve reads commands from r and writes responses to w until EOF or
// QUIT. Errors writing to w abort the session; cancelling ctx makes
// in-flight scans and queries fail promptly with an ERR reply.
func Serve(ctx context.Context, rw io.ReadWriter, db Store) error {
	if ctx == nil {
		ctx = context.Background()
	}
	sc := bufio.NewScanner(rw)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	out := bufio.NewWriter(rw)
	// emit buffers one reply line; reply also flushes, ending the reply.
	// Multi-row replies (SCAN, VERSIONS) buffer their ROW lines, so a
	// reply costs a few conn writes, not one per row.
	emit := func(format string, args ...interface{}) error {
		_, err := fmt.Fprintf(out, format+"\n", args...)
		return err
	}
	reply := func(format string, args ...interface{}) error {
		if err := emit(format, args...); err != nil {
			return err
		}
		return out.Flush()
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.SplitN(line, " ", 6)
		cmd := strings.ToUpper(fields[0])
		var err error
		switch {
		case cmd == "QUIT":
			return reply("OK bye")
		case cmd == "CREATE" && len(fields) >= 3:
			if cerr := db.CreateTable(fields[1], fields[2:]...); cerr != nil {
				err = reply("ERR %v", cerr)
			} else {
				err = reply("OK table %s", fields[1])
			}
		case cmd == "PUT" && len(fields) >= 5:
			if perr := db.Put(ctx, fields[1], fields[2], []byte(fields[3]), []byte(strings.Join(fields[4:], " "))); perr != nil {
				err = reply("ERR %v", perr)
			} else {
				err = reply("OK")
			}
		case cmd == "GET" && len(fields) >= 4:
			row, gerr := db.Get(ctx, fields[1], fields[2], []byte(fields[3]))
			if gerr != nil {
				err = reply("ERR %v", gerr)
			} else {
				err = reply("VAL %d %s", row.TS, row.Value)
			}
		case cmd == "GETAT" && len(fields) >= 5:
			ts, perr := strconv.ParseInt(fields[4], 10, 64)
			if perr != nil {
				err = reply("ERR bad timestamp %q", fields[4])
				break
			}
			rows, gerr := db.Read(ctx, fields[1], fields[2], []byte(fields[3]), readopt.Options{Snapshot: ts})
			if gerr != nil {
				err = reply("ERR %v", gerr)
			} else {
				err = reply("VAL %d %s", rows[0].TS, rows[0].Value)
			}
		case cmd == "VERSIONS" && len(fields) >= 4:
			rows, verr := db.Read(ctx, fields[1], fields[2], []byte(fields[3]), readopt.Options{AllVersions: true})
			if verr != nil {
				err = reply("ERR %v", verr)
				break
			}
			for _, r := range rows {
				if err = emit("ROW %s %d %s", r.Key, r.TS, r.Value); err != nil {
					break
				}
			}
			if err == nil {
				err = reply("END %d", len(rows))
			}
		case cmd == "DEL" && len(fields) >= 4:
			if derr := db.Delete(ctx, fields[1], fields[2], []byte(fields[3])); derr != nil {
				err = reply("ERR %v", derr)
			} else {
				err = reply("OK")
			}
		case cmd == "SCAN" && len(fields) >= 5:
			// SCAN <table> <group> <start|*> <end|*> [LIMIT n] [REVERSE]
			// [AT ts] [PREFIX p] [FILTER KEY|VAL <pred>] — options are
			// pushed down to the tablet server. Re-split the full line
			// (like QUERY) since SCAN takes open-ended operands.
			args := strings.Fields(line)
			var start, end []byte
			if args[3] != "*" {
				start = []byte(args[3])
			}
			if args[4] != "*" {
				end = []byte(args[4])
			}
			opt, bad := parseScanOptions(args[5:])
			if bad != "" {
				err = reply("ERR %s", bad)
				break
			}
			if opt.Limit <= 0 {
				opt.Limit = 100 // protocol guard: never stream unbounded
			}
			n := 0
			it := db.Scan(ctx, fields[1], fields[2], start, end, opt)
			for it.Next() {
				r := it.Row()
				if err = emit("ROW %s %d %s", r.Key, r.TS, r.Value); err != nil {
					break
				}
				n++
			}
			it.Close() // write error: release the scan
			if err == nil {
				if serr := it.Err(); serr != nil {
					err = reply("ERR %v", serr)
				} else {
					err = reply("END %d", n)
				}
			}
		case cmd == "QUERY" && len(fields) >= 4:
			// QUERY <table> <group> followed by the statement grammar
			// (FROM/TO/FILTER/JOIN/AT/BY/AGG — see the package doc): the
			// line parses as ONE statement executed by Store.Exec. Re-split
			// the full line: QUERY takes more operands than the common
			// commands.
			args := strings.Fields(line)
			if kind, aerr := query.ParseAggKind(strings.ToUpper(args[3])); aerr == nil {
				expr := "VAL"
				if kind == query.Count {
					expr = "*"
				}
				err = reply("ERR the positional QUERY form was removed: write QUERY %s %s [FROM <start>] [TO <end>] AGG %s %s %s",
					args[1], args[2], kind, args[1], expr)
				break
			}
			stmt, perr := query.ParseStatementTokens(args[1:])
			if perr != nil {
				err = reply("ERR %v", perr)
				break
			}
			res, qerr := db.Exec(ctx, stmt)
			if qerr != nil {
				err = reply("ERR %v", qerr)
				break
			}
			names := make([]string, len(stmt.Aggs))
			kinds := make([]query.AggKind, len(stmt.Aggs))
			for i, a := range stmt.Aggs {
				if names[i], kinds[i] = a.Name, a.Kind; names[i] == "" {
					names[i] = a.Kind.String()
				}
			}
			err = replyAggs(reply, res, names, kinds)
		case cmd == "WATCH" && len(fields) >= 5:
			// WATCH <table> <group|*> <start|*> <end|*> [FROM lsn] [LIMIT n]
			// streams one EVENT line per committed mutation: catch-up
			// through the retained log, then the live tail. Without LIMIT
			// the stream runs until the client disconnects (each EVENT is
			// flushed, so a closed peer surfaces as a write error).
			args := strings.Fields(line)
			group := args[2]
			if group == "*" {
				group = ""
			}
			var start, end []byte
			if args[3] != "*" {
				start = []byte(args[3])
			}
			if args[4] != "*" {
				end = []byte(args[4])
			}
			var fromLSN uint64
			limit := 0
			bad := ""
			rest := args[5:]
			for len(rest) > 0 && bad == "" {
				switch kw := strings.ToUpper(rest[0]); kw {
				case "FROM", "LIMIT":
					if len(rest) < 2 {
						bad = kw + " needs a value"
						break
					}
					v, perr := strconv.ParseUint(rest[1], 10, 64)
					if perr != nil {
						bad = "bad " + kw + " value " + rest[1]
						break
					}
					if kw == "FROM" {
						fromLSN = v
					} else {
						limit = int(v)
					}
					rest = rest[2:]
				default:
					bad = "unexpected operand " + rest[0]
				}
			}
			if bad != "" {
				err = reply("ERR %s", bad)
				break
			}
			feed, werr := db.Watch(ctx, args[1], group, start, end, fromLSN)
			if werr != nil {
				err = reply("ERR %v", werr)
				break
			}
			n := 0
			var ferr error
			for limit <= 0 || n < limit {
				var ev cdc.Event
				if ev, ferr = feed.Next(ctx); ferr != nil {
					break
				}
				if ev.Kind == cdc.Delete {
					err = reply("EVENT DELETE %s %s %d %d %d", ev.Group, ev.Key, ev.TS, ev.LSN, ev.Cursor)
				} else {
					err = reply("EVENT PUT %s %s %d %d %d %s", ev.Group, ev.Key, ev.TS, ev.LSN, ev.Cursor, ev.Value)
				}
				if err != nil {
					break
				}
				n++
			}
			feed.Close()
			if err == nil {
				if ferr != nil && !errors.Is(ferr, cdc.ErrFeedClosed) {
					err = reply("ERR %v", ferr)
				} else {
					err = reply("END %d", n)
				}
			}
		case cmd == "MVIEW" && len(fields) >= 3:
			args := strings.Fields(line)
			switch sub := strings.ToUpper(args[1]); {
			case sub == "CREATE" && len(args) >= 6:
				// MVIEW CREATE <name> <table> <group> <agg[,agg...]>
				// [start|*] [end|*] [BY n]
				spec := mview.Spec{Name: args[2], Table: args[3], Group: args[4]}
				rest := args[6:]
				bad := ""
				for _, a := range strings.Split(strings.ToUpper(args[5]), ",") {
					kind, aerr := query.ParseAggKind(a)
					if aerr != nil {
						bad = aerr.Error()
					}
					spec.Aggs = append(spec.Aggs, kind)
				}
				for pos := 0; pos < 2 && len(rest) > 0; pos++ {
					if strings.ToUpper(rest[0]) == "BY" {
						break
					}
					if rest[0] != "*" {
						if pos == 0 {
							spec.Start = []byte(rest[0])
						} else {
							spec.End = []byte(rest[0])
						}
					}
					rest = rest[1:]
				}
				if bad == "" && len(rest) > 0 && strings.ToUpper(rest[0]) == "BY" {
					if len(rest) < 2 {
						bad = "BY needs a value"
					} else if v, perr := strconv.Atoi(rest[1]); perr != nil {
						bad = "bad prefix length " + rest[1]
					} else {
						spec.GroupPrefix = v
						rest = rest[2:]
					}
				}
				if bad == "" && len(rest) > 0 {
					bad = "unexpected operand " + rest[0]
				}
				if bad != "" {
					err = reply("ERR %s", bad)
				} else if cerr := db.CreateMView(ctx, spec); cerr != nil {
					err = reply("ERR %v", cerr)
				} else {
					err = reply("OK view %s", spec.Name)
				}
			case sub == "QUERY" && len(args) >= 3:
				// The view's spec names its aggregates, in result order.
				st, serr := db.MViewStats(args[2])
				if serr != nil {
					err = reply("ERR %v", serr)
					break
				}
				res, qerr := db.MViewQuery(ctx, args[2])
				if qerr != nil {
					err = reply("ERR %v", qerr)
					break
				}
				names := make([]string, len(st.Spec.Aggs))
				for i, k := range st.Spec.Aggs {
					names[i] = k.String()
				}
				err = replyAggs(reply, res, names, st.Spec.Aggs)
			case sub == "STATS" && len(args) >= 3:
				st, serr := db.MViewStats(args[2])
				if serr != nil {
					err = reply("ERR %v", serr)
					break
				}
				if err = reply("STAT %s watermark_lsn=%d watermark_ts=%d events=%d snapshot_rows=%d skipped=%d groups=%d keys=%d",
					st.Spec.Name, st.WatermarkLSN, st.WatermarkTS, st.Events, st.SnapshotRows, st.Skipped, st.Groups, st.Keys); err == nil {
					err = reply("END 1")
				}
			default:
				err = reply("ERR unknown or malformed MVIEW subcommand %q", line)
			}
		case cmd == "CHECKPOINT":
			if cerr := db.Checkpoint(); cerr != nil {
				err = reply("ERR %v", cerr)
			} else {
				err = reply("OK checkpoint")
			}
		case cmd == "COMPACT":
			if _, cerr := db.Compact(); cerr != nil {
				err = reply("ERR %v", cerr)
			} else {
				err = reply("OK compact")
			}
		case cmd == "SCRUB":
			reports, serr := db.Scrub()
			if serr != nil {
				err = reply("ERR %v", serr)
				break
			}
			repaired, unrecoverable := 0, 0
			for _, rep := range reports {
				if err = reply("SCRUB %s segments=%d blocks=%d replicas_read=%d repaired=%d unrecoverable=%d",
					rep.Server, rep.Segments, rep.Blocks, rep.ReplicasRead,
					rep.RepairedBlocks, len(rep.Unrecoverable)); err != nil {
					break
				}
				repaired += rep.RepairedBlocks
				unrecoverable += len(rep.Unrecoverable)
				for _, d := range rep.Unrecoverable {
					if err = reply("DEFECT %s %s", rep.Server, d); err != nil {
						break
					}
				}
				if err != nil {
					break
				}
			}
			if err == nil {
				err = reply("END repaired=%d unrecoverable=%d", repaired, unrecoverable)
			}
		case cmd == "STATS":
			replicas := db.ReplicaStats()
			lines := 0
			for _, sn := range db.Stats() {
				if err = reply("STAT %s writes=%d reads=%d deletes=%d log_reads=%d cache_hits=%d cache_misses=%d "+
					"compactions=%d dropped=%d reclaimed=%d sorted_frac=%.3f garbage_frac=%.3f segments=%d log_bytes=%d",
					sn.Server, sn.Writes, sn.Reads, sn.Deletes, sn.LogReads, sn.CacheHits, sn.CacheMisses,
					sn.Compactions, sn.CompactDropped, sn.BytesReclaimed, sn.SortedFraction, sn.GarbageRatio,
					sn.Segments, sn.LogBytes); err != nil {
					break
				}
				lines++
				for _, rs := range replicas[sn.Server] {
					if err = reply("STAT %s replica_generation=%d replica_applied_lsn=%d replica_source_lsn=%d "+
						"replica_lag_records=%d replica_lag_seconds=%.3f replica_watermark_ts=%d replica_reads_served=%d",
						rs.BaseID, rs.Generation, rs.AppliedLSN, rs.SourceLSN,
						rs.LagRecords, rs.LagSeconds, rs.WatermarkTS, rs.ReadsServed); err != nil {
						break
					}
					lines++
				}
				if err != nil {
					break
				}
			}
			// The expanded registry rides behind the legacy STAT lines so
			// old clients keep parsing; histograms ship their quantile
			// snapshot, _seconds series scaled to seconds.
			if reg := db.Metrics(); err == nil && reg != nil {
				for _, m := range reg.Snapshot() {
					if m.Kind == "histogram" {
						scale := 1.0
						if strings.HasSuffix(m.Name, "_seconds") {
							scale = 1e-9
						}
						err = reply("METRIC %s%s count=%d p50=%g p95=%g p99=%g max=%g",
							m.Name, m.Labels, m.Hist.Count,
							float64(m.Hist.P50)*scale, float64(m.Hist.P95)*scale,
							float64(m.Hist.P99)*scale, float64(m.Hist.Max)*scale)
					} else {
						err = reply("METRIC %s%s %g", m.Name, m.Labels, m.Value)
					}
					if err != nil {
						break
					}
					lines++
				}
			}
			if err == nil {
				err = reply("END %d", lines)
			}
		default:
			err = reply("ERR unknown or malformed command %q", line)
		}
		if err != nil {
			return err
		}
	}
	return sc.Err()
}

// replyAggs renders a query result as one "AGG <group|-> <op> <value>
// rows=<n>" line per group × aggregate and the closing "END <groups>
// <ts>"; names and kinds describe the result's aggregates in order.
func replyAggs(reply func(string, ...interface{}) error, res query.Result, names []string, kinds []query.AggKind) error {
	for _, g := range res.Groups {
		key := g.Key
		if key == "" {
			key = "-"
		}
		for i, name := range names {
			if err := reply("AGG %s %s %g rows=%d", key, name, g.Aggs[i].Value(kinds[i]), g.Rows); err != nil {
				return err
			}
		}
	}
	return reply("END %d %d", len(res.Groups), res.TS)
}

// parseScanOptions decodes the SCAN option operands (everything after
// the positional bounds) into the wire-level option set. A non-empty
// second return is the protocol error message.
func parseScanOptions(rest []string) (readopt.Options, string) {
	var opt readopt.Options
	for len(rest) > 0 {
		switch kw := strings.ToUpper(rest[0]); kw {
		case "LIMIT", "AT":
			if len(rest) < 2 {
				return opt, kw + " needs a value"
			}
			v, err := strconv.ParseInt(rest[1], 10, 64)
			if err != nil {
				return opt, "bad " + kw + " value " + rest[1]
			}
			if kw == "LIMIT" {
				opt.Limit = int(v)
			} else {
				opt.Snapshot = v
			}
			rest = rest[2:]
		case "REVERSE":
			opt.Reverse = true
			rest = rest[1:]
		case "PRIMARY":
			opt.Primary = true
			rest = rest[1:]
		case "MAXLAG":
			if len(rest) < 2 {
				return opt, "MAXLAG needs a value"
			}
			v, err := strconv.ParseInt(rest[1], 10, 64)
			if err != nil || v <= 0 {
				return opt, "bad MAXLAG value " + rest[1]
			}
			opt.MaxLag = v
			rest = rest[2:]
		case "PREFIX":
			if len(rest) < 2 {
				return opt, "PREFIX needs a value"
			}
			p, err := readopt.UnescapeOperand(rest[1])
			if err != nil {
				return opt, err.Error()
			}
			opt.Prefix = p
			rest = rest[2:]
		case "FILTER":
			if len(rest) < 2 {
				return opt, "FILTER needs KEY or VAL"
			}
			target := strings.ToUpper(rest[1])
			if target != "KEY" && target != "VAL" {
				return opt, "FILTER target must be KEY or VAL, not " + rest[1]
			}
			pred, tail, err := readopt.ParsePredicate(rest[2:])
			if err != nil {
				return opt, err.Error()
			}
			if target == "KEY" {
				opt.Key = pred
			} else {
				opt.Value = pred
			}
			rest = tail
		default:
			if _, err := strconv.Atoi(rest[0]); err == nil {
				return opt, "a bare row limit was removed: write LIMIT " + rest[0]
			}
			return opt, "unexpected operand " + rest[0]
		}
	}
	return opt, ""
}

// ParseStatLine decodes one "STAT <server> k=v ..." response line into
// the server id and its counter map (values parsed as floats; malformed
// pairs are skipped). ok is false for lines that are not STAT lines —
// callers polling STATS feed every response line through and keep the
// hits, which is how logbase-cli's watch mode computes deltas.
func ParseStatLine(line string) (server string, kv map[string]float64, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 || fields[0] != "STAT" {
		return "", nil, false
	}
	kv = make(map[string]float64, len(fields)-2)
	for _, f := range fields[2:] {
		k, v, found := strings.Cut(f, "=")
		if !found {
			continue
		}
		n, err := strconv.ParseFloat(v, 64)
		if err != nil {
			continue
		}
		kv[k] = n
	}
	return fields[1], kv, true
}
