package wal

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// Batch-read tuning: frames closer than readBatchGap are coalesced into
// one DFS read, and a coalesced run is capped at readBatchMaxRun so a
// dense batch never materialises a whole segment at once.
const (
	readBatchGap    = 64 << 10
	readBatchMaxRun = 4 << 20
)

// readScratch holds the grow-only buffers ReadValues reads coalesced
// runs into and Scanner windows refill. A view handed out of one is
// valid only until the next call, and ReadBatch and View.Record copy
// out, so nothing a caller keeps aliases a pooled buffer.
var readScratch = sync.Pool{New: func() any { return new([]byte) }}

// ReadBatch fetches the records at ptrs, returning them in input order:
// ReadValues' walk, each frame copied out whole into a Record.
func (l *Log) ReadBatch(ptrs []Ptr) ([]Record, error) {
	out := make([]Record, len(ptrs))
	if err := l.readFrames(ptrs, func(i int, f frameView) { out[i] = f.record() }); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadValues fetches the frames at ptrs and calls fn(i, value) for each,
// i indexing ptrs. Pointers are grouped by segment and visited in offset
// order; runs of nearby frames are coalesced into single large reads, so
// a batch costs a few sequential sweeps instead of one random access per
// record. This is the amortisation behind the analytical scan path
// (paper §3.6.4: post-compaction scans read clustered data sequentially;
// a batch recovers most of that locality even on uncompacted logs
// whenever the requested rows were appended near each other).
//
// value is a view of the frame in the batch's scratch buffer, CRC-checked
// before the call, nil for a delete frame. It is valid only until fn
// returns: a caller that keeps it copies it. fn runs in log order, not
// input order, and on an error it may already have run for some ptrs.
func (l *Log) ReadValues(ptrs []Ptr, fn func(i int, value []byte)) error {
	return l.readFrames(ptrs, func(i int, f frameView) { fn(i, f.value) })
}

// readFrames is the walk behind ReadValues and ReadBatch: it checks the
// frame at each of ptrs into a view of the run's scratch and hands it to
// fn with the pointer's index. The view goes by value: a pointer to it
// would escape through fn and cost an allocation per batch.
func (l *Log) readFrames(ptrs []Ptr, fn func(i int, f frameView)) error {
	if len(ptrs) == 0 {
		return nil
	}
	// Pin every segment the batch touches for the duration of the call:
	// a compaction installing concurrently may doom these segments, and
	// the pins keep the files on disk until the reads finish.
	pinned := make([]uint32, 0, 4)
	for _, p := range ptrs {
		if len(pinned) == 0 || pinned[len(pinned)-1] != p.Seg {
			pinned = append(pinned, p.Seg)
		}
	}
	l.Pin(pinned...)
	defer l.Unpin(pinned...)
	// Index-ordered scans hand us pointers already in log order (keys
	// were appended in key order); detect that and skip the sort.
	sorted := true
	for i := 1; i < len(ptrs); i++ {
		if ptrs[i].Seg < ptrs[i-1].Seg ||
			(ptrs[i].Seg == ptrs[i-1].Seg && ptrs[i].Off < ptrs[i-1].Off) {
			sorted = false
			break
		}
	}
	order := make([]int, len(ptrs))
	for i := range order {
		order[i] = i
	}
	if !sorted {
		sort.Slice(order, func(a, b int) bool {
			pa, pb := ptrs[order[a]], ptrs[order[b]]
			if pa.Seg != pb.Seg {
				return pa.Seg < pb.Seg
			}
			return pa.Off < pb.Off
		})
	}
	// One pooled grow-only scratch buffer serves every coalesced run, so
	// a batch allocates at most O(max run) and usually nothing.
	scratch := readScratch.Get().(*[]byte)
	defer readScratch.Put(scratch)
	for i := 0; i < len(order); {
		seg := ptrs[order[i]].Seg
		r, err := l.reader(seg)
		if err != nil {
			return err
		}
		// Extend the run while frames stay in this segment, near-adjacent,
		// and under the run size cap.
		start := ptrs[order[i]].Off
		end := start + int64(ptrs[order[i]].Len)
		j := i + 1
		for j < len(order) {
			p := ptrs[order[j]]
			if p.Seg != seg || p.Off > end+readBatchGap {
				break
			}
			e := p.Off + int64(p.Len)
			if e-start > readBatchMaxRun {
				break
			}
			if e > end {
				end = e
			}
			j++
		}
		if int64(cap(*scratch)) < end-start {
			*scratch = make([]byte, end-start)
		}
		buf := (*scratch)[:end-start]
		if _, err := r.ReadAt(buf, start); err != nil && err != io.EOF {
			return fmt.Errorf("wal: batch read seg %d: %w", seg, err)
		}
		for k := i; k < j; k++ {
			var f frameView
			p := ptrs[order[k]]
			if err := parseFrame(buf[p.Off-start:p.Off-start+int64(p.Len)], &f); err != nil {
				return fmt.Errorf("wal: decode %v: %w", p, err)
			}
			fn(order[k], f)
		}
		i = j
	}
	return nil
}
