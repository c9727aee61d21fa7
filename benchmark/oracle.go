package main

// The oracle and the closed-loop client that checks every reply
// against it. Values describe themselves (key, sequence number, tag),
// so a reply is verified without keeping any value bytes: the oracle
// holds one int64 per key.

import (
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"time"
)

// oracle holds, per key id, the sequence number of the last
// acknowledged write: > 0 a live value with that seq, < 0 a delete
// acknowledged at -seq, 0 never written.
type oracle struct {
	state []atomic.Int64
	seq   atomic.Int64
}

func newOracle(n int) *oracle { return &oracle{state: make([]atomic.Int64, n)} }

func (o *oracle) nextSeq() int64 { return o.seq.Add(1) }

// liveFrom lists up to limit (id, seq) pairs of live keys with id >=
// start (and id < end when end > 0) in key order, keeping only
// versions carrying filterTag when filter is set.
func (o *oracle) liveFrom(start, end, limit int, filter bool, dst []expect) []expect {
	if end <= 0 || end > len(o.state) {
		end = len(o.state)
	}
	for id := start; id < end && len(dst) < limit; id++ {
		seq := o.state[id].Load()
		if seq > 0 && (!filter || tagOf(id, seq) == 2) {
			dst = append(dst, expect{id, seq})
		}
	}
	return dst
}

type expect struct {
	id  int
	seq int64
}

// target is what a client drives: one deployment's way of executing
// each op kind. Errors other than "not found" are failures.
type target interface {
	put(key, value []byte) error
	get(key []byte) (value []byte, found bool, err error)
	del(key []byte) error
	// scan streams up to limit rows in key order from start.
	scan(start []byte, limit int, filter bool, fn func(key, value []byte)) error
	// tx reads k1 and k2, hands what it read to seen, and overwrites
	// both with v1 and v2, atomically.
	tx(k1, k2 []byte, seen func(i int, value []byte, found bool), v1, v2 []byte) error
	// agg returns COUNT(*) and SUM(seq) over keys in [lo, hi); nil
	// bounds are open.
	agg(lo, hi []byte) (count int64, sum float64, err error)
}

var errUnsupported = errors.New("op not supported by this target")

// roundRec collects one client's measurements of one round, or a merge
// of the clients'.
type roundRec struct {
	lat      [nOpKinds][]int64 // ns per op, by kind
	scanRows int64
	scanNS   int64
}

func (r *roundRec) merge(o *roundRec) {
	for k := range r.lat {
		r.lat[k] = append(r.lat[k], o.lat[k]...)
	}
	r.scanRows += o.scanRows
	r.scanNS += o.scanNS
}

func (r *roundRec) ops() int {
	n := 0
	for _, l := range r.lat {
		n += len(l)
	}
	return n
}

// client executes ops against a target in a closed loop: the next op
// is issued only after the previous reply has arrived and been checked.
type client struct {
	id, clients int
	tgt         target
	or          *oracle
	rec         *roundRec
	failed      int
	attempted   int

	vbuf, vbuf2 []byte
	exp         []expect
	// hook, when set, is called with each op's kind, index and timing
	// (the traced run records spans through it).
	hook func(kind opKind, opID int, start, end time.Time)
	opID int
}

func newClient(id, clients int, tgt target, or *oracle) *client {
	return &client{id: id, clients: clients, tgt: tgt, or: or, rec: &roundRec{},
		vbuf: make([]byte, valueSize), vbuf2: make([]byte, valueSize)}
}

var failLogged atomic.Int32

func (c *client) fail(format string, args ...any) {
	c.failed++
	if failLogged.Add(1) <= 10 {
		fmt.Fprintf(os.Stderr, "FAIL client %d: %s\n", c.id, fmt.Sprintf(format, args...))
	}
}

// owns reports whether this client is the only writer of key id, in
// which case reads of it must return exactly the oracle's sequence.
func (c *client) owns(id int) bool { return id%c.clients == c.id }

// checkValue verifies one returned (key, value) against what the
// oracle held before the op was issued.
func (c *client) checkValue(what string, key, value []byte, want expect) {
	id, seq, ok := parseValue(value)
	switch {
	case !ok:
		c.fail("%s %s: malformed value %.40q", what, key, value)
	case parseKey(key) != want.id || id != want.id:
		c.fail("%s: got key %s value-for k%08d, want k%08d", what, key, id, want.id)
	case c.owns(id) && seq != want.seq, seq < want.seq:
		c.fail("%s %s: seq %d, oracle %d", what, key, seq, want.seq)
	}
}

func (c *client) run(ops []op) {
	for _, o := range ops {
		c.do(o)
	}
}

func (c *client) do(o op) {
	c.attempted++
	id := int(o.key)
	var kbuf [keyLen]byte
	key := appendKey(kbuf[:0], id)
	var t0, t1 time.Time
	switch o.kind {
	case opPut:
		seq := c.or.nextSeq()
		val := fillValue(c.vbuf, id, seq)
		t0 = time.Now()
		err := c.tgt.put(key, val)
		t1 = time.Now()
		if err != nil {
			c.fail("PUT %s: %v", key, err)
			break
		}
		c.or.state[id].Store(seq)
	case opDelete:
		seq := c.or.nextSeq()
		t0 = time.Now()
		err := c.tgt.del(key)
		t1 = time.Now()
		if err != nil {
			c.fail("DEL %s: %v", key, err)
			break
		}
		c.or.state[id].Store(-seq)
	case opGet:
		want := c.or.state[id].Load()
		t0 = time.Now()
		val, found, err := c.tgt.get(key)
		t1 = time.Now()
		switch {
		case err != nil:
			c.fail("GET %s: %v", key, err)
		case !found && want > 0:
			c.fail("GET %s: not found, oracle seq %d", key, want)
		case found && want <= 0 && c.owns(id):
			c.fail("GET %s: found, oracle says absent (%d)", key, want)
		case found:
			c.checkValue("GET", key, val, expect{id, max(want, 0)})
		}
	case opScan, opScanFilter:
		filter := o.kind == opScanFilter
		c.exp = c.or.liveFrom(id, 0, int(o.limit), filter, c.exp[:0])
		n := 0
		t0 = time.Now()
		err := c.tgt.scan(key, int(o.limit), filter, func(k, v []byte) {
			if n < len(c.exp) {
				c.checkValue("SCAN row", k, v, c.exp[n])
			}
			n++
		})
		t1 = time.Now()
		if err != nil {
			c.fail("SCAN %s: %v", key, err)
		} else if n != len(c.exp) {
			c.fail("SCAN %s LIMIT %d: %d rows, oracle %d", key, o.limit, n, len(c.exp))
		}
		c.rec.scanRows += int64(n)
		c.rec.scanNS += int64(t1.Sub(t0))
	case opTx:
		id2 := int(o.key2)
		var kbuf2 [keyLen]byte
		key2 := appendKey(kbuf2[:0], id2)
		seq1, seq2 := c.or.nextSeq(), c.or.nextSeq()
		v1, v2 := fillValue(c.vbuf, id, seq1), fillValue(c.vbuf2, id2, seq2)
		ids := [2]int{id, id2}
		t0 = time.Now()
		err := c.tgt.tx(key, key2, func(i int, val []byte, found bool) {
			want := c.or.state[ids[i]].Load()
			if found != (want > 0) {
				c.fail("TX read k%08d: found=%v, oracle %d", ids[i], found, want)
			} else if found {
				c.checkValue("TX read", keyOf(ids[i]), val, expect{ids[i], want})
			}
		}, v1, v2)
		t1 = time.Now()
		if err != nil {
			c.fail("TX %s %s: %v", key, key2, err)
			break
		}
		c.or.state[id].Store(seq1)
		c.or.state[id2].Store(seq2)
	case opAggRange, opAggFull:
		var lo, hi []byte
		end := 0
		if o.kind == opAggRange {
			end = int(o.key2)
			lo, hi = key, keyOf(end)
		} else {
			id = 0
		}
		var wantN int64
		var wantSum float64
		for _, e := range c.or.liveFrom(id, end, len(c.or.state), false, c.exp[:0]) {
			wantN++
			wantSum += float64(e.seq)
		}
		t0 = time.Now()
		n, sum, err := c.tgt.agg(lo, hi)
		t1 = time.Now()
		if err != nil {
			c.fail("%s: %v", o, err)
		} else if n != wantN || sum != wantSum {
			c.fail("%s: count %d sum %.0f, oracle %d %.0f", o, n, sum, wantN, wantSum)
		}
	}
	c.rec.lat[o.kind] = append(c.rec.lat[o.kind], int64(t1.Sub(t0)))
	if c.hook != nil {
		c.hook(o.kind, c.opID, t0, t1)
	}
	c.opID++
}
