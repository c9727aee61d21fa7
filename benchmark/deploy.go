package main

// Deployments of the unmodified program that the workloads drive, and
// the outside-in measurements taken around them: bytes under a data
// directory and CPU time of a process.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	logbase "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/simdisk"
)

const (
	tableName = "t"
	groupName = "g"
	// replicas is the DFS replication factor of every deployment (the
	// program's default): log appends are synchronous to all three.
	replicas = 3
)

// storeTarget drives any logbase.Store (embedded DB or cluster client).
type storeTarget struct {
	st  logbase.Store
	ctx context.Context
}

func (t storeTarget) put(key, value []byte) error {
	return t.st.Put(t.ctx, tableName, groupName, key, value)
}

func (t storeTarget) get(key []byte) ([]byte, bool, error) {
	row, err := t.st.Get(t.ctx, tableName, groupName, key)
	if errors.Is(err, logbase.ErrNotFound) {
		return nil, false, nil
	}
	return row.Value, err == nil, err
}

func (t storeTarget) del(key []byte) error {
	return t.st.Delete(t.ctx, tableName, groupName, key)
}

func (t storeTarget) scan(start []byte, limit int, filter bool, fn func(key, value []byte)) error {
	opts := []logbase.ReadOption{logbase.WithLimit(limit)}
	if filter {
		opts = append(opts, logbase.WithValueFilter(logbase.MatchContains([]byte(filterTag))))
	}
	it := t.st.Scan(t.ctx, tableName, groupName, start, nil, opts...)
	for it.Next() {
		r := it.Row()
		fn(r.Key, r.Value)
	}
	return it.Close()
}

func (t storeTarget) tx(k1, k2 []byte, seen func(int, []byte, bool), v1, v2 []byte) error {
	return logbase.RunTx(t.ctx, t.st, func(tx logbase.Tx) error {
		for i, k := range [][]byte{k1, k2} {
			v, err := tx.Get(t.ctx, tableName, groupName, k)
			if err != nil && !errors.Is(err, logbase.ErrNotFound) {
				return err
			}
			seen(i, v, err == nil)
		}
		if err := tx.Put(tableName, groupName, k1, v1); err != nil {
			return err
		}
		return tx.Put(tableName, groupName, k2, v2)
	})
}

func (t storeTarget) agg(lo, hi []byte) (int64, float64, error) {
	stmt := logbase.Q(tableName).Group(groupName).Range(lo, hi).
		Agg(logbase.Count).AggOf(logbase.Sum, tableName, logbase.ValField(1))
	res, err := t.st.Exec(t.ctx, stmt)
	if err != nil {
		return 0, 0, err
	}
	return int64(res.Value(0, logbase.Count)), res.Value(1, logbase.Sum), nil
}

// bulkLoad writes (id, seq) pairs through a WriteBatch, 1000 mutations
// per flush, recording each in the oracle once its flush is
// acknowledged. seq <= 0 entries are deletes.
func bulkLoad(ctx context.Context, st logbase.Store, or *oracle, ids []int, del bool) error {
	b := st.Batch()
	buf := make([]byte, valueSize)
	pending := make([]expect, 0, 1000)
	flush := func() error {
		if err := b.Flush(ctx); err != nil {
			return err
		}
		for _, e := range pending {
			or.state[e.id].Store(e.seq)
		}
		pending = pending[:0]
		return nil
	}
	for _, id := range ids {
		seq := or.nextSeq()
		if del {
			b.Delete(tableName, groupName, keyOf(id))
			seq = -seq
		} else {
			b.Put(tableName, groupName, keyOf(id), fillValue(buf, id, seq))
		}
		pending = append(pending, expect{id, seq})
		if b.Len() >= 1000 {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

// closeDFS closes the datanodes' cached block files; killing a datanode
// is the DFS's way to do that.
func closeDFS(fs *dfs.DFS) {
	for i := 0; i < fs.NumDataNodes(); i++ {
		fs.KillDataNode(i)
	}
}

// clusterDeploy is an in-process cluster on a modelled DFS: three
// datanodes with the default 7200 RPM disk model sharing one virtual
// clock, three synchronous replicas.
type clusterDeploy struct {
	c     *cluster.Cluster
	cc    *logbase.ClusterClient
	clock *simdisk.Clock
	dir   string
}

func newClusterDeploy(dir string, servers int, cacheBytes int64, groupCommit bool) (*clusterDeploy, error) {
	clock := &simdisk.Clock{}
	c, err := cluster.New(dir, cluster.Config{
		NumServers: servers,
		Tables:     []cluster.TableSpec{{Name: tableName, Groups: []string{groupName}}},
		Server:     core.Config{ReadCacheBytes: cacheBytes, GroupCommit: groupCommit},
		DFS: dfs.Config{
			NumDataNodes: 3, ReplicationFactor: replicas,
			DiskModel: simdisk.DefaultModel(), Clock: clock,
		},
	})
	if err != nil {
		return nil, err
	}
	return &clusterDeploy{c: c, cc: logbase.NewClusterClient(c), clock: clock, dir: dir}, nil
}

// close stops the cluster, closes its files and removes the data.
func (d *clusterDeploy) close() {
	d.cc.Close()
	closeDFS(d.c.FS())
	os.RemoveAll(d.dir)
}

// spread gives every server a share of the "k%08d" key range. The
// cluster's uniform byte-range tablets put all such keys in one tablet,
// so after a thin seed load the harness splits that tablet at its
// population midpoint until there is one piece per server and moves
// piece i to server i — the program's own elasticity path. Three
// servers end up with 50/25/25 % of the keys, two with 50/50.
func (d *clusterDeploy) spread() error {
	router, err := d.c.Router(tableName)
	if err != nil {
		return err
	}
	tab, ok := router.Lookup(keyOf(0))
	if !ok {
		return errors.New("no tablet for k00000000")
	}
	servers := d.c.LiveServers()
	sort.Strings(servers)
	pieces := []string{tab.ID}
	for len(pieces) < len(servers) {
		last := pieces[len(pieces)-1]
		l, r, err := d.c.SplitTablet(last)
		if err != nil {
			return fmt.Errorf("split %s: %w", last, err)
		}
		pieces = append(pieces[:len(pieces)-1], l, r)
	}
	for i, p := range pieces {
		if err := d.c.MoveTablet(p, servers[i]); err != nil {
			return fmt.Errorf("move %s to %s: %w", p, servers[i], err)
		}
	}
	return nil
}

// ownedBy lists the key ids among candidates whose tablet is served by
// server id.
func (d *clusterDeploy) ownedBy(server string, candidates []int) ([]int, error) {
	cl := d.c.NewClient()
	assign := d.c.Assignments()
	var out []int
	for _, id := range candidates {
		tab, err := cl.TabletFor(tableName, keyOf(id))
		if err != nil {
			return nil, err
		}
		if assign[tab] == server {
			out = append(out, id)
		}
	}
	return out, nil
}

// failover kills server and returns the time until every sampled key
// it owned reads back, verified, through the cluster client.
func (d *clusterDeploy) failover(server string, sample []int, or *oracle, cl *client) (time.Duration, error) {
	owned, err := d.ownedBy(server, sample)
	if err != nil {
		return 0, err
	}
	if len(owned) == 0 {
		return 0, fmt.Errorf("server %s owns none of the %d sampled keys", server, len(sample))
	}
	t0 := time.Now()
	if err := d.c.KillServer(server); err != nil {
		return 0, err
	}
	verifyKeys(cl, owned)
	return time.Since(t0), nil
}

// verifyKeys reads every id through the client's target and checks it
// against the oracle (live keys must match exactly, deleted and never-
// written keys must be absent). It bypasses the latency recorder.
func verifyKeys(cl *client, ids []int) {
	for _, id := range ids {
		cl.attempted++
		key := keyOf(id)
		want := cl.or.state[id].Load()
		val, found, err := cl.tgt.get(key)
		switch {
		case err != nil:
			cl.fail("verify %s: %v", key, err)
		case found != (want > 0):
			cl.fail("verify %s: found=%v, oracle %d", key, found, want)
		case found:
			cl.checkValue("verify", key, val, expect{id, want})
		}
	}
}

// dirBytes sums the sizes of all regular files under dir: what the
// deployment has on its (real) disks, all replicas included.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// stolenTime is how long, since boot, this guest's CPUs had work to run
// while the hypervisor ran something else: the steal column of
// /proc/stat, summed over the CPUs, in ticks of 10 ms. Zero where the
// kernel does not report it.
func stolenTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseInt(f[8], 10, 64)
	return time.Duration(ticks) * 10 * time.Millisecond
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// pidCPU is another process's on-CPU time, summed over its threads
// from /proc/<pid>/task/*/schedstat (nanosecond resolution; the
// utime+stime fields of /proc/<pid>/stat only tick at 100 Hz).
func pidCPU(pid int) time.Duration {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	var ns int64
	for _, p := range tasks {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		if f := strings.Fields(string(b)); len(f) > 0 {
			v, _ := strconv.ParseInt(f[0], 10, 64)
			ns += v
		}
	}
	return time.Duration(ns)
}

// pidPeakRSS is a process's high-water resident set in bytes (VmHWM).
func pidPeakRSS(pid int) int64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseInt(f[1], 10, 64)
				return kb << 10
			}
		}
	}
	return 0
}

// serverProc is a logbase-server subprocess, exactly as shipped:
// embedded DB, group commit on, 32 MB read buffer.
type serverProc struct {
	cmd  *exec.Cmd
	addr string
	dir  string
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startServer launches bin on a free port over a fresh data dir and
// waits for its "listening on" log line.
func startServer(cfg *runCfg, dir string) (*serverProc, error) {
	cmd := exec.Command(cfg.serverBin, "-addr", "127.0.0.1:0", "-dir", dir, "-servers", "0", "-cache", "33554432")
	// The server must not outlive the benchmark, whatever kills it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cfg.place.startOn(cmd); err != nil {
		return nil, err
	}
	sp := &serverProc{cmd: cmd, dir: dir}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := listenRE.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
		close(addrCh)
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok || addr == "" {
			sp.stop()
			return nil, errors.New("logbase-server exited before listening")
		}
		sp.addr = addr
	case <-time.After(20 * time.Second):
		sp.stop()
		return nil, errors.New("logbase-server did not start listening within 20s")
	}
	return sp, nil
}

// stop kills the server, waits for it, and removes its data dir.
func (sp *serverProc) stop() {
	sp.cmd.Process.Kill()
	sp.cmd.Wait()
	os.RemoveAll(sp.dir)
}

// wireConn is one TCP session speaking the line protocol; it is the
// target of the wire workload and counts the bytes it moves.
type wireConn struct {
	c          net.Conn
	r          *bufio.Reader
	buf        []byte
	sent, rcvd int64
}

func dialWire(addr string) (*wireConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &wireConn{c: c, r: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (w *wireConn) close() { w.c.Close() }

// send writes one command line and returns the first reply line.
func (w *wireConn) send(parts ...[]byte) ([]byte, error) {
	w.buf = w.buf[:0]
	for i, p := range parts {
		if i > 0 {
			w.buf = append(w.buf, ' ')
		}
		w.buf = append(w.buf, p...)
	}
	w.buf = append(w.buf, '\n')
	if _, err := w.c.Write(w.buf); err != nil {
		return nil, err
	}
	w.sent += int64(len(w.buf))
	return w.line()
}

func (w *wireConn) line() ([]byte, error) {
	l, err := w.r.ReadSlice('\n')
	w.rcvd += int64(len(l))
	if err != nil {
		return nil, err
	}
	return l[:len(l)-1], nil
}

var (
	tgBytes  = []byte(tableName + " " + groupName)
	cmdPut   = []byte("PUT")
	cmdGet   = []byte("GET")
	cmdDel   = []byte("DEL")
	cmdScan  = []byte("SCAN")
	okLine   = []byte("OK")
	notFound = []byte("not found")
)

func (w *wireConn) create() error {
	l, err := w.send([]byte("CREATE"), tgBytes)
	if err == nil && !bytes.HasPrefix(l, okLine) {
		err = fmt.Errorf("CREATE: %s", l)
	}
	return err
}

func (w *wireConn) put(key, value []byte) error {
	l, err := w.send(cmdPut, tgBytes, key, value)
	if err == nil && !bytes.Equal(l, okLine) {
		err = fmt.Errorf("%s", l)
	}
	return err
}

func (w *wireConn) del(key []byte) error {
	l, err := w.send(cmdDel, tgBytes, key)
	if err == nil && !bytes.Equal(l, okLine) {
		err = fmt.Errorf("%s", l)
	}
	return err
}

// get parses "VAL <ts> <value>"; an ERR naming "not found" is absence.
func (w *wireConn) get(key []byte) ([]byte, bool, error) {
	l, err := w.send(cmdGet, tgBytes, key)
	if err != nil {
		return nil, false, err
	}
	if f := bytes.SplitN(l, []byte(" "), 3); len(f) == 3 && string(f[0]) == "VAL" {
		return f[2], true, nil
	}
	if bytes.Contains(l, notFound) {
		return nil, false, nil
	}
	return nil, false, fmt.Errorf("%s", l)
}

// scan parses "ROW <key> <ts> <value>" lines up to "END <n>".
func (w *wireConn) scan(start []byte, limit int, filter bool, fn func(key, value []byte)) error {
	if filter {
		return errUnsupported
	}
	l, err := w.send(cmdScan, tgBytes, start, []byte("* LIMIT"), strconv.AppendInt(nil, int64(limit), 10))
	for n := 0; err == nil; n++ {
		f := bytes.SplitN(l, []byte(" "), 4)
		switch {
		case len(f) == 4 && string(f[0]) == "ROW":
			fn(f[1], f[3])
		case len(f) == 2 && string(f[0]) == "END":
			if got, _ := strconv.Atoi(string(f[1])); got != n {
				return fmt.Errorf("END %s after %d rows", f[1], n)
			}
			return nil
		default:
			return fmt.Errorf("%s", l)
		}
		l, err = w.line()
	}
	return err
}

func (w *wireConn) tx(_, _ []byte, _ func(int, []byte, bool), _, _ []byte) error {
	return errUnsupported
}

func (w *wireConn) agg(_, _ []byte) (int64, float64, error) { return 0, 0, errUnsupported }
