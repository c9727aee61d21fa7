package sstable

import "container/heap"

// MergeIterator merges several sorted sources into one Compare-ordered
// stream. Sources earlier in the slice shadow later ones for identical
// (key, ts) pairs — callers pass newer tables first, matching LSM and
// HBase store-file precedence.
type MergeIterator struct {
	h       mergeHeap
	cur     Entry
	started bool
	err     error
}

// Source is anything that yields entries in Compare order.
type Source interface {
	Next() bool
	Entry() Entry
	Err() error
}

type mergeItem struct {
	src  Source
	e    Entry
	rank int
}

type mergeHeap []mergeItem

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	c := Compare(h[i].e.Key, h[i].e.TS, h[j].e.Key, h[j].e.TS)
	if c != 0 {
		return c < 0
	}
	return h[i].rank < h[j].rank
}
func (h mergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(mergeItem)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// NewMergeIterator builds a merged stream over sources (newest first).
func NewMergeIterator(sources ...Source) *MergeIterator {
	m := &MergeIterator{}
	for rank, s := range sources {
		if s.Next() {
			m.h = append(m.h, mergeItem{src: s, e: s.Entry(), rank: rank})
		} else if err := s.Err(); err != nil {
			m.err = err
		}
	}
	heap.Init(&m.h)
	return m
}

// Next advances, deduplicating identical (key, ts) pairs in favour of
// the lowest-rank (newest) source.
func (m *MergeIterator) Next() bool {
	if m.err != nil {
		return false
	}
	for m.h.Len() > 0 {
		it := m.h[0]
		if it.src.Next() {
			m.h[0].e = it.src.Entry()
			heap.Fix(&m.h, 0)
		} else {
			if err := it.src.Err(); err != nil {
				m.err = err
				return false
			}
			heap.Pop(&m.h)
		}
		if m.started && Compare(it.e.Key, it.e.TS, m.cur.Key, m.cur.TS) == 0 {
			continue // shadowed duplicate
		}
		m.cur = it.e
		m.started = true
		return true
	}
	return false
}

// Entry returns the current entry.
func (m *MergeIterator) Entry() Entry { return m.cur }

// Err returns the first error encountered.
func (m *MergeIterator) Err() error { return m.err }
