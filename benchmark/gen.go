package main

// The benchmark's own seeded load generator. Nothing here imports the
// repository's bench or ycsb packages: the op stream is a pure function
// of (workload, seed, client), pinned by golden_test.go, so a change to
// the program can never change the inputs it is measured on.

import (
	"fmt"
	"math"
	"sort"
)

// rng is splitmix64: tiny, fast, and ours, so the stream cannot drift
// with the Go release the way math/rand's unseeded helpers may.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed*0x9e3779b97f4a7c15 + 0x1234567} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// keyspace draws key ids in [0, n) Zipf(0.99)-distributed over ranks,
// with ranks scrambled by a seeded permutation so the hot keys are
// spread over the whole key range (and so over every tablet).
type keyspace struct {
	n    int
	cdf  []float64
	perm []int32
}

const zipfTheta = 0.99

func newKeyspace(n int, seed uint64) *keyspace {
	ks := &keyspace{n: n, cdf: make([]float64, n), perm: make([]int32, n)}
	var sum float64
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), zipfTheta)
		ks.cdf[i] = sum
	}
	for i := range ks.cdf {
		ks.cdf[i] /= sum
	}
	for i := range ks.perm {
		ks.perm[i] = int32(i)
	}
	r := newRNG(seed ^ 0x5ca1ab1e)
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		ks.perm[i], ks.perm[j] = ks.perm[j], ks.perm[i]
	}
	return ks
}

// zipf returns a key id.
func (ks *keyspace) zipf(r *rng) int {
	rank := sort.SearchFloat64s(ks.cdf, r.float())
	if rank >= ks.n {
		rank = ks.n - 1
	}
	return int(ks.perm[rank])
}

// Keys are "k%08d"; values are valueSize bytes of self-describing
// "key,seq,tag,pad": the key they belong to, the sequence number of the
// write that produced them (zero-padded so SUM over field 1 parses), a
// tag in c0..c3 derived from (id, seq) that value filters select on,
// and 'x' padding.
const (
	keyLen    = 9
	valueSize = 256
	tagCount  = 4
)

func appendKey(dst []byte, id int) []byte {
	dst = append(dst, 'k')
	for div := 10000000; div > 0; div /= 10 {
		dst = append(dst, byte('0'+id/div%10))
	}
	return dst
}

func keyOf(id int) []byte { return appendKey(make([]byte, 0, keyLen), id) }

func tagOf(id int, seq int64) int { return int((int64(id) + seq) % tagCount) }

// fillValue writes the value for (id, seq) into buf[:valueSize].
func fillValue(buf []byte, id int, seq int64) []byte {
	b := appendKey(buf[:0], id)
	b = append(b, ',')
	for div := int64(1000000000); div > 0; div /= 10 {
		b = append(b, byte('0'+seq/div%10))
	}
	b = append(b, ',', 'c', byte('0'+tagOf(id, seq)), ',')
	for len(b) < valueSize {
		b = append(b, 'x')
	}
	return b
}

// parseKey returns the id of a "k%08d" key, or -1.
func parseKey(k []byte) int {
	if len(k) != keyLen || k[0] != 'k' {
		return -1
	}
	id := 0
	for _, c := range k[1:] {
		if c < '0' || c > '9' {
			return -1
		}
		id = id*10 + int(c-'0')
	}
	return id
}

// parseValue checks a value's shape and returns the id and seq it
// describes; ok is false when it is not something fillValue wrote.
func parseValue(v []byte) (id int, seq int64, ok bool) {
	if len(v) != valueSize || v[keyLen] != ',' || v[keyLen+11] != ',' {
		return 0, 0, false
	}
	id = parseKey(v[:keyLen])
	if id < 0 {
		return 0, 0, false
	}
	for _, c := range v[keyLen+1 : keyLen+11] {
		if c < '0' || c > '9' {
			return 0, 0, false
		}
		seq = seq*10 + int64(c-'0')
	}
	tag := v[keyLen+12 : keyLen+15]
	if tag[0] != 'c' || int(tag[1]-'0') != tagOf(id, seq) || tag[2] != ',' {
		return 0, 0, false
	}
	return id, seq, true
}

// filterTag is the tag the value-filtered scans select (a quarter of
// all versions).
const filterTag = ",c2,"

type opKind uint8

const (
	opPut opKind = iota
	opGet
	opDelete
	opScan       // ordered scan from key, LIMIT limit
	opScanFilter // the same with a value filter on filterTag
	opTx         // read-modify-write of key and key2 in one transaction
	opAggRange   // COUNT + SUM(seq) over ids [key, key2)
	opAggFull    // COUNT + SUM(seq) over the whole table
	nOpKinds
)

var opNames = [nOpKinds]string{"PUT", "GET", "DEL", "SCAN", "SCANF", "TX", "AGG", "AGGFULL"}

type op struct {
	kind  opKind
	key   int32
	key2  int32
	limit int32
}

func (o op) String() string {
	switch o.kind {
	case opScan, opScanFilter:
		return fmt.Sprintf("%s %s LIMIT %d", opNames[o.kind], keyOf(int(o.key)), o.limit)
	case opTx, opAggRange:
		return fmt.Sprintf("%s %s %s", opNames[o.kind], keyOf(int(o.key)), keyOf(int(o.key2)))
	case opAggFull:
		return opNames[o.kind]
	}
	return fmt.Sprintf("%s %s", opNames[o.kind], keyOf(int(o.key)))
}

// mix is the exact number of ops of each kind in one client's round.
// Exact counts in a fixed shuffled order, rather than probabilities: a
// round's cost must not depend on how many expensive ops a seed
// happened to draw, or on where it put them.
type mix struct {
	count     [nOpKinds]int
	scanLimit int
	// aggSpan is the width of an opAggRange in key ids.
	aggSpan int
}

func (m mix) total() int {
	n := 0
	for _, c := range m.count {
		n += c
	}
	return n
}

// genOps draws one client's round. The order of the op kinds is the same
// for every seed (a shuffle seeded by the mix alone): how many puts come
// right after a scan, or where the one full-table aggregate falls, shapes
// a round's timings, and must not change with the seed. The keys are
// what the seed draws. Writes (put, delete, tx) only touch key ids
// congruent to client modulo clients, so every key has one writer and the
// oracle's per-key sequence is exact; reads go anywhere.
func genOps(ks *keyspace, r *rng, m mix, client, clients int) []op {
	own := func() int32 {
		id := ks.zipf(r)
		id -= id % clients
		id += client
		if id >= ks.n {
			id -= clients
		}
		return int32(id)
	}
	ops := make([]op, 0, m.total())
	for kind := opKind(0); kind < nOpKinds; kind++ {
		for i := 0; i < m.count[kind]; i++ {
			ops = append(ops, op{kind: kind})
		}
	}
	order := newRNG(uint64(len(ops))<<8 | uint64(client))
	for i := len(ops) - 1; i > 0; i-- {
		j := order.intn(i + 1)
		ops[i], ops[j] = ops[j], ops[i]
	}
	for i := range ops {
		o := &ops[i]
		switch o.kind {
		case opPut, opDelete:
			o.key = own()
		case opGet:
			o.key = int32(ks.zipf(r))
		case opScan, opScanFilter:
			o.key, o.limit = int32(ks.zipf(r)), int32(m.scanLimit)
		case opTx:
			o.key, o.key2 = own(), own()
			for o.key2 == o.key {
				o.key2 = own()
			}
		case opAggRange:
			o.key = int32(r.intn(ks.n - m.aggSpan))
			o.key2 = o.key + int32(m.aggSpan)
		}
	}
	return ops
}
