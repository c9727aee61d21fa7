package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestServerEndToEnd boots a real logbase-server (embedded backend,
// metrics endpoint enabled), speaks the TCP protocol, and scrapes the
// HTTP observability surface — the same path `logbase-server
// -metrics-addr :0` exposes.
func TestServerEndToEnd(t *testing.T) {
	srv, err := startServer(serverConfig{
		addr:        "127.0.0.1:0",
		dir:         t.TempDir(),
		cache:       1 << 20,
		metricsAddr: "127.0.0.1:0",
		slowOps:     -1,
	})
	if err != nil {
		t.Fatalf("startServer: %v", err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	rd := bufio.NewReader(conn)
	send := func(cmd string) string {
		t.Helper()
		fmt.Fprintf(conn, "%s\n", cmd)
		line, err := rd.ReadString('\n')
		if err != nil {
			t.Fatalf("%s: read: %v", cmd, err)
		}
		return strings.TrimSpace(line)
	}

	if got := send("CREATE t g"); got != "OK table t" {
		t.Fatalf("CREATE = %q", got)
	}
	if got := send("PUT t g k hello"); got != "OK" {
		t.Fatalf("PUT = %q", got)
	}
	if got := send("GET t g k"); !strings.HasSuffix(got, " hello") {
		t.Fatalf("GET = %q", got)
	}

	// STATS streams STAT + METRIC lines, END-terminated. The write and
	// read above must already be visible in both representations.
	fmt.Fprintln(conn, "STATS")
	var stat string
	metrics := 0
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			t.Fatalf("STATS read: %v", err)
		}
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "STAT ") {
			stat = line
		}
		if strings.HasPrefix(line, "METRIC ") {
			metrics++
		}
		if strings.HasPrefix(line, "END ") {
			break
		}
	}
	if !strings.Contains(stat, "writes=1") || !strings.Contains(stat, "reads=1") {
		t.Errorf("STAT line = %q, want writes=1 reads=1", stat)
	}
	if metrics == 0 {
		t.Error("STATS emitted no METRIC lines")
	}

	// The HTTP endpoint serves the same registry in Prometheus text…
	body := httpGet(t, "http://"+srv.MetricsAddr()+"/metrics")
	for _, want := range []string{
		"# TYPE logbase_op_duration_seconds histogram",
		`logbase_op_duration_seconds_count{op="put",server="embedded"} 1`,
		"# TYPE logbase_compactions gauge",
		"logbase_server_writes",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// …and pprof next to it.
	if idx := httpGet(t, "http://"+srv.MetricsAddr()+"/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Error("/debug/pprof/ index missing goroutine profile")
	}
}

// TestAdminSurfaceBothBackends drives STATS, SCRUB, COMPACT and
// CHECKPOINT — plus the point-read and query commands — through the
// real adapter with -servers 0 and -servers 3: the admin surface is the
// same client method set on both backends, so the server needs no type
// switch to fan out.
func TestAdminSurfaceBothBackends(t *testing.T) {
	for _, tc := range []struct {
		name    string
		servers int
		ids     []string // STAT/SCRUB server ids, in reply order
	}{
		{"embedded", 0, []string{"embedded"}},
		{"cluster", 3, []string{"ts00", "ts01", "ts02"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := startServer(serverConfig{
				addr: "127.0.0.1:0", dir: t.TempDir(), cache: 1 << 20,
				servers: tc.servers, replicas: 1, slowOps: -1,
			})
			if err != nil {
				t.Fatalf("startServer: %v", err)
			}
			defer srv.Close()
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(20 * time.Second))
			rd := bufio.NewReader(conn)
			// send returns the reply lines up to and including the
			// terminator (END/OK/ERR/VAL).
			send := func(cmd string) []string {
				t.Helper()
				fmt.Fprintf(conn, "%s\n", cmd)
				var lines []string
				for {
					line, err := rd.ReadString('\n')
					if err != nil {
						t.Fatalf("%s: read: %v (so far %v)", cmd, err, lines)
					}
					line = strings.TrimSpace(line)
					lines = append(lines, line)
					switch strings.Fields(line)[0] {
					case "END", "OK", "ERR", "VAL":
						return lines
					}
				}
			}
			withPrefix := func(lines []string, prefix string) []string {
				var out []string
				for _, l := range lines {
					if strings.HasPrefix(l, prefix) {
						out = append(out, strings.Fields(l)[1])
					}
				}
				return out
			}

			send("CREATE t g")
			for i := 0; i < 30; i++ {
				if got := send(fmt.Sprintf("PUT t g k%02d %d", i, i)); got[0] != "OK" {
					t.Fatalf("PUT = %v", got)
				}
			}
			send("PUT t g k00 overwritten")

			if got := send("CHECKPOINT"); got[0] != "OK checkpoint" {
				t.Errorf("CHECKPOINT = %v", got)
			}
			if got := send("COMPACT"); got[0] != "OK compact" {
				t.Errorf("COMPACT = %v", got)
			}
			scrub := send("SCRUB")
			if ids := withPrefix(scrub, "SCRUB "); !slices.Equal(ids, tc.ids) {
				t.Errorf("SCRUB servers = %v, want %v (%v)", ids, tc.ids, scrub)
			}
			if last := scrub[len(scrub)-1]; last != "END repaired=0 unrecoverable=0" {
				t.Errorf("SCRUB terminator = %q", last)
			}
			// STATS: one STAT line per server, each followed by its
			// replica's line.
			var want []string
			for _, id := range tc.ids {
				want = append(want, id, id+".r0")
			}
			stats := send("STATS")
			if ids := withPrefix(stats, "STAT "); !slices.Equal(ids, want) {
				t.Errorf("STAT lines = %v, want %v", ids, want)
			}
			if !strings.Contains(strings.Join(stats, "\n"), "compactions=1") {
				t.Errorf("STATS does not show the COMPACT run: %v", stats)
			}

			// The one Read behind GETAT and VERSIONS, and the statement
			// form of QUERY, through the same adapter.
			if got := send("VERSIONS t g k00"); len(got) != 3 || got[2] != "END 2" {
				t.Errorf("VERSIONS = %v, want two versions", got)
			}
			if got := send("GETAT t g k00 1"); got[0] != "VAL 1 0" {
				t.Errorf("GETAT = %v", got)
			}
			if got := send("QUERY t g AGG COUNT t *"); got[0] != "AGG - COUNT 30 rows=30" {
				t.Errorf("QUERY = %v", got)
			}
		})
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: body: %v", url, err)
	}
	return string(b)
}
