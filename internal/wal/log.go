package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/dfs"
	"repro/internal/fault"
)

// Options configures a Log.
type Options struct {
	// SegmentSize is the rotation threshold in bytes. Zero means 64 MB
	// (the paper's default, matching HDFS chunk size).
	SegmentSize int64
	// Faults, when non-nil, is consulted at the "wal.append" point on
	// every batched segment write: injections can tear the batch
	// (Partial), drop it whole (an fsync-lost suffix), or flip a bit
	// on its way to disk. A Batcher over the log also consults
	// "wal.batch.lead" before each leader takes its batch (Batcher.lead).
	// Nil injects nothing.
	Faults *fault.Registry
	// Peer opens another server's log for replay: segments an unfinished
	// removal lists (doomedPath) are passed over, not deleted as in Open.
	Peer bool
}

func (o Options) withDefaults() Options {
	if o.SegmentSize <= 0 {
		o.SegmentSize = 64 << 20
	}
	return o
}

// Segment header: magic (5) + format version (1) + flags (1) + reserved
// (1). Version 2 frames records with varint fields (record.go); version
// 1, fixed-width fields, is refused rather than misread.
var segMagic = []byte{'L', 'B', 'S', 'E', 'G', segVersion}

const segVersion = 2

const (
	segHeaderSize  = 8
	segFlagSorted  = 1 << 0 // segment produced by compaction; clustered by (table, group, key, ts)
	segFlagCompact = 1 << 1 // reserved for per-segment table/group defaults
)

// SegmentHeaderSize is the fixed per-segment header length; a segment
// of exactly this size holds no records.
const SegmentHeaderSize = segHeaderSize

// SegmentInfo describes one live segment.
type SegmentInfo struct {
	Num    uint32
	Size   int64
	Sorted bool
	// Garbage is the accumulated byte count of records in this segment
	// known to be superseded (deleted keys, versions beyond the
	// retention bound, stale same-timestamp rewrites). The auto
	// compactor picks rewrite candidates by Garbage/Size.
	Garbage int64
}

// Empty reports whether the segment holds no records (header only).
func (si SegmentInfo) Empty() bool { return si.Size <= SegmentHeaderSize }

// Log is a single tablet server's log instance (one per server, shared
// by all its tablets, per the paper's single-log design choice). It is
// safe for concurrent use; appends are serialised internally.
type Log struct {
	fs   *dfs.DFS
	dir  string
	opts Options

	mu      sync.Mutex
	segs    map[uint32]*segState
	order   []uint32 // live segments in append order
	cur     uint32   // segment currently open for append (0 = none)
	curW    *dfs.Writer
	nextSeg uint32
	nextLSN uint64
	readers map[uint32]*dfs.Reader
	dooming int // doomed segments whose files still exist

	// The in-memory tail, oldest batch first, and its byte count
	// (tail.go). tailMoved is made only when a follower waits.
	tail      []tailBatch
	tailSize  int
	tailMoved chan struct{}
}

type segState struct {
	size    int64 // full file bytes (records + footer)
	dataEnd int64 // end of the record area (== size when no footer)
	sorted  bool
	meta    *SegmentMeta // footer metadata; sorted segments only
	garbage int64        // superseded record bytes (see SegmentInfo.Garbage)
	pins    int          // active scanners/readers holding the segment
	doomed  bool         // removed from the live set; deletion deferred until pins==0
}

// Open opens (or creates) the log stored under dir in fs. Existing
// segments are discovered and kept; the next append goes to a fresh
// segment (matching restart behaviour: a recovering server never
// rewrites an old tail in place).
func Open(fs *dfs.DFS, dir string, opts Options) (*Log, error) {
	l := &Log{
		fs:      fs,
		dir:     dir,
		opts:    opts.withDefaults(),
		segs:    make(map[uint32]*segState),
		readers: make(map[uint32]*dfs.Reader),
		nextSeg: 1,
		nextLSN: 1,
	}
	doomed, err := l.readDoomed()
	if err != nil {
		return nil, err
	}
	for _, path := range fs.List(dir + "/seg-") {
		var num uint32
		if _, err := fmt.Sscanf(path[len(dir)+1:], "seg-%08d", &num); err != nil {
			continue
		}
		if doomed[num] {
			if !opts.Peer {
				fs.Delete(path) //nolint:errcheck // listed above, so it exists
			}
			continue
		}
		size, err := fs.Size(path)
		if err != nil {
			return nil, err
		}
		sorted, meta, dataEnd, err := l.readSegHeaderFooter(path, size)
		if errors.Is(err, errTornHeader) {
			// The crash tore the header write of a segment that never
			// held a record.
			if !opts.Peer {
				fs.Delete(path) //nolint:errcheck // listed above, so it exists
			}
			continue
		}
		if err != nil {
			return nil, err
		}
		l.segs[num] = &segState{size: size, dataEnd: dataEnd, sorted: sorted, meta: meta}
		l.order = append(l.order, num)
		if num >= l.nextSeg {
			l.nextSeg = num + 1
		}
	}
	if doomed != nil && !opts.Peer {
		fs.Delete(l.doomedPath()) //nolint:errcheck // read above, so it exists
	}
	sort.Slice(l.order, func(i, j int) bool { return l.order[i] < l.order[j] })
	if err := l.repairTailOnOpen(); err != nil {
		return nil, err
	}
	return l, nil
}

// repairTailOnOpen physically truncates a torn frame at the end of the
// segment that was open for append: the highest-numbered unsorted one.
// It need not be the last segment — compaction writes its sorted output
// above the append segment while appends go on — and sorted segments,
// sealed by compaction and footer-checked above, never carry an active
// tail. A crash mid-append leaves the torn bytes on disk; recovery's
// scan would skip them, but they must also be cut from the file — the
// next session appends to a *new* segment, and a torn frame in a
// then-sealed segment would read as interior corruption on any later
// recovery. The check is VerifySegment's, which copies nothing out of
// the frames. Interior corruption found here (a CRC mismatch before the
// tail) fails the open loudly.
func (l *Log) repairTailOnOpen() error {
	i := len(l.order) - 1
	for i >= 0 && l.segs[l.order[i]].sorted {
		i--
	}
	if i < 0 || l.segs[l.order[i]].size <= segHeaderSize {
		return nil
	}
	num := l.order[i]
	st := l.segs[num]
	path := l.SegmentPath(num)
	r, err := l.fs.Open(path)
	if err != nil {
		return err
	}
	defer r.Close()
	verr := VerifySegment(r, st.size, num, false)
	if verr == nil {
		return nil
	}
	var ce *CorruptionError
	if errors.As(verr, &ce) && errors.Is(ce.Err, ErrTorn) && ce.Off > 0 {
		if err := l.fs.Truncate(path, ce.Off); err != nil {
			return fmt.Errorf("wal: truncate torn tail of seg %d: %w", num, err)
		}
		st.size, st.dataEnd = ce.Off, ce.Off
		return nil
	}
	return verr
}

// errTornHeader reports a segment file shorter than its header whose
// bytes are a prefix of one: the header write was torn, so the segment
// holds no records.
var errTornHeader = errors.New("wal: torn segment header")

// errSegVersion reports a segment written in another format version.
var errSegVersion = errors.New("segment format version")

// readSegHeaderFooter validates a segment's header and, for sorted
// segments, decodes the trailing footer.
func (l *Log) readSegHeaderFooter(path string, size int64) (sorted bool, meta *SegmentMeta, dataEnd int64, err error) {
	r, err := l.fs.Open(path)
	if err != nil {
		return false, nil, 0, err
	}
	defer r.Close()
	hdr := make([]byte, segHeaderSize)
	n, err := r.ReadAt(hdr, 0)
	if err != nil && err != io.EOF {
		return false, nil, 0, err
	}
	if n < segHeaderSize && bytes.HasPrefix(segMagic, hdr[:min(n, len(segMagic))]) {
		return false, nil, 0, errTornHeader
	}
	if !bytes.HasPrefix(hdr, segMagic[:len(segMagic)-1]) {
		return false, nil, 0, fmt.Errorf("wal: %s: bad segment magic", path)
	}
	if v := hdr[len(segMagic)-1]; v != segVersion {
		return false, nil, 0, fmt.Errorf("wal: %s: %w %d (this build reads version %d only)", path, errSegVersion, v, segVersion)
	}
	sorted = hdr[6]&segFlagSorted != 0
	dataEnd = size
	if sorted {
		meta, dataEnd, err = readFooter(r, size)
		if err != nil {
			return false, nil, 0, fmt.Errorf("wal: %s: %w", path, err)
		}
	}
	return sorted, meta, dataEnd, nil
}

// SegmentPath returns the DFS path of segment num.
func (l *Log) SegmentPath(num uint32) string {
	return fmt.Sprintf("%s/seg-%08d", l.dir, num)
}

// newSegmentLocked creates a fresh segment file and writes its header.
func (l *Log) newSegmentLocked(sorted bool) (uint32, *dfs.Writer, error) {
	num := l.nextSeg
	l.nextSeg++
	w, err := l.fs.Create(l.SegmentPath(num))
	if err != nil {
		return 0, nil, err
	}
	hdr := make([]byte, segHeaderSize)
	copy(hdr, segMagic)
	if sorted {
		hdr[6] |= segFlagSorted
	}
	if _, err := w.Write(hdr); err != nil {
		return 0, nil, err
	}
	l.segs[num] = &segState{size: segHeaderSize, dataEnd: segHeaderSize, sorted: sorted}
	l.order = append(l.order, num)
	return num, w, nil
}

// NextLSN returns the LSN the next appended record will receive.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// SetNextLSN bumps the LSN counter; recovery calls this after replaying
// the tail so new writes continue the sequence.
func (l *Log) SetNextLSN(lsn uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lsn > l.nextLSN {
		l.nextLSN = lsn
	}
}

// Append durably appends the records in order, assigning consecutive
// LSNs, and returns one Ptr per record. The records' LSN fields are
// updated in place. Records never span segment files. Consecutive
// frames destined for the same segment are coalesced into one DFS
// write, which is what makes group commit amortise the persistence
// cost (paper §3.7.2). Every batch written is kept in the in-memory
// tail (Follow).
func (l *Log) Append(recs ...*Record) ([]Ptr, error) {
	if len(recs) == 0 {
		return nil, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	ptrs := make([]Ptr, 0, len(recs))
	size := 0
	for i, r := range recs {
		r.LSN = l.nextLSN + uint64(i) // before sizing: the LSN is a varint
		size += FrameSize(r)
	}
	batch := make([]byte, 0, size) // every frame is written into it in place
	first := l.nextLSN
	for _, r := range recs {
		n := int64(FrameSize(r))
		if l.curW == nil || l.segs[l.cur].size+n > l.opts.SegmentSize {
			if err := l.flushBatchLocked(batch); err != nil {
				return nil, err
			}
			// The tail keeps the flushed array: the rest go to a fresh one.
			l.keepLocked(first, batch)
			batch, first = make([]byte, 0, cap(batch)-len(batch)), l.nextLSN
			num, w, err := l.newSegmentLocked(false)
			if err != nil {
				return nil, err
			}
			l.cur, l.curW = num, w
		}
		l.nextLSN++
		st := l.segs[l.cur]
		ptrs = append(ptrs, Ptr{Seg: l.cur, Off: st.size, Len: uint32(n)})
		batch = AppendFrame(batch, r)
		st.size += n
		st.dataEnd = st.size
	}
	if err := l.flushBatchLocked(batch); err != nil {
		return nil, err
	}
	l.keepLocked(first, batch)
	return ptrs, nil
}

// flushBatchLocked writes one coalesced frame batch to the current
// segment, consulting the "wal.append" fault point. Injected outcomes
// model the real failure shapes: Partial writes a prefix of the batch
// (a torn tail), a bare Err drops the whole batch (an fsync-lost
// suffix), FlipBit corrupts a bit in flight (latent on-disk damage
// that only a CRC check or scrub will notice). On any non-crash write
// failure the segment is repaired in place — truncated back to the
// last durable record boundary — so the log keeps serving; a crash
// outcome leaves the torn bytes on disk, exactly as a dead process
// would.
func (l *Log) flushBatchLocked(batch []byte) error {
	if len(batch) == 0 {
		return nil
	}
	st := l.segs[l.cur]
	start := st.size - int64(len(batch))
	fail := func(written int, err error) error {
		if !fault.Crashed(err) {
			l.repairTornLocked(l.cur, start)
		} else {
			// The process is "dead": record reality (start + the torn
			// prefix) so a same-process reopen in the crash harness
			// does not consult in-memory state past the tear.
			st.size = start + int64(written)
			st.dataEnd = st.size
		}
		return fmt.Errorf("wal: append seg %d: %w", l.cur, err)
	}
	if o := l.opts.Faults.Fire("wal.append"); o.Injected() {
		p := batch
		if o.FlipBit {
			p = append([]byte(nil), batch...)
			fault.Corrupt(p, o.Token)
		}
		if o.Partial > 0 && o.Partial < 1 {
			torn := int(float64(len(p)) * o.Partial)
			if torn == 0 {
				torn = 1
			}
			if _, werr := l.curW.Write(p[:torn]); werr != nil {
				return fail(0, werr)
			}
			err := o.Err
			if err == nil {
				err = fault.ErrInjected
			}
			return fail(torn, fmt.Errorf("torn after %d/%d bytes: %w", torn, len(p), err))
		}
		if o.Err != nil {
			return fail(0, o.Err)
		}
		if _, err := l.curW.Write(p); err != nil {
			return fail(0, err)
		}
		return nil
	}
	if _, err := l.curW.Write(batch); err != nil {
		return fail(0, err)
	}
	return nil
}

// repairTornLocked restores a segment to its last durable record
// boundary after a failed batch write: the DFS file is truncated to
// cut any torn prefix of the failed batch, and the in-memory state is
// rolled back to match. The caller's append returns an error, so
// nothing in the failed batch was acknowledged.
func (l *Log) repairTornLocked(num uint32, dataEnd int64) {
	st, ok := l.segs[num]
	if !ok {
		return
	}
	path := l.SegmentPath(num)
	if size, err := l.fs.Size(path); err == nil && size > dataEnd {
		// Truncation failing here is unrecoverable in place: rotate so
		// the garbage tail is never appended after. The torn frame then
		// sits at the end of a sealed segment, which recovery treats as
		// loud corruption — strictly safer than serving on top of it.
		if terr := l.fs.Truncate(path, dataEnd); terr != nil {
			st.size = size
			st.dataEnd = dataEnd
			if l.cur == num && l.curW != nil {
				l.curW.Close()
				l.cur, l.curW = 0, nil
			}
			return
		}
	}
	st.size = dataEnd
	st.dataEnd = dataEnd
}

// Rotate forces the next append into a new segment.
func (l *Log) Rotate() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.curW != nil {
		l.curW.Close()
		l.curW = nil
		l.cur = 0
	}
}

// ActiveSegment returns the segment currently open for append (0 =
// none). The auto compactor excludes it from rewrite candidates.
func (l *Log) ActiveSegment() uint32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cur
}

func (l *Log) reader(num uint32) (*dfs.Reader, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.readerLocked(num)
}

func (l *Log) readerLocked(num uint32) (*dfs.Reader, error) {
	if r, ok := l.readers[num]; ok {
		return r, nil
	}
	// Doomed segments stay readable until their last pin drops: an
	// in-flight iterator holding Ptrs into a compacted-away segment
	// finishes against the still-present file.
	if _, ok := l.segs[num]; !ok {
		return nil, fmt.Errorf("wal: segment %d not live", num)
	}
	r, err := l.fs.Open(l.SegmentPath(num))
	if err != nil {
		return nil, err
	}
	l.readers[num] = r
	return r, nil
}

// Pin takes a reference on each given segment, deferring its physical
// deletion (RemoveSegments) until the matching Unpin. Unknown segments
// are ignored. Scanners and batch readers pin the segments they touch
// so compaction never deletes a file under an in-flight read.
func (l *Log) Pin(nums ...uint32) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, n := range nums {
		if st, ok := l.segs[n]; ok {
			st.pins++
		}
	}
}

// Unpin releases references taken by Pin, physically deleting any
// doomed segment whose last pin drops.
func (l *Log) Unpin(nums ...uint32) {
	l.mu.Lock()
	var doomed []uint32
	for _, n := range nums {
		st, ok := l.segs[n]
		if !ok {
			continue
		}
		if st.pins > 0 {
			st.pins--
		}
		if st.doomed && st.pins == 0 {
			doomed = append(doomed, n)
		}
	}
	l.mu.Unlock()
	for _, n := range doomed {
		l.finalizeRemove(n)
	}
}

// PinAll pins every live segment and returns their numbers (pass them
// to Unpin when done). Long scans use it to hold the whole snapshot
// they started on.
func (l *Log) PinAll() []uint32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, n := range l.order {
		l.segs[n].pins++
	}
	return slices.Clone(l.order)
}

// Read fetches the record at ptr. This is the single-seek read path the
// in-memory index enables (paper §3.5).
func (l *Log) Read(ptr Ptr) (Record, error) {
	l.Pin(ptr.Seg)
	defer l.Unpin(ptr.Seg)
	r, err := l.reader(ptr.Seg)
	if err != nil {
		return Record{}, err
	}
	buf := make([]byte, ptr.Len)
	if _, err := r.ReadAt(buf, ptr.Off); err != nil && err != io.EOF {
		return Record{}, fmt.Errorf("wal: read %v: %w", ptr, err)
	}
	rec, _, err := Decode(buf)
	if err != nil {
		return Record{}, fmt.Errorf("wal: decode %v: %w", ptr, err)
	}
	return rec, nil
}

// Segments lists live segments in append order.
func (l *Log) Segments() []SegmentInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SegmentInfo, 0, len(l.order))
	for _, num := range l.order {
		st := l.segs[num]
		out = append(out, SegmentInfo{Num: num, Size: st.size, Sorted: st.sorted, Garbage: st.garbage})
	}
	return out
}

// SegmentMeta returns the footer metadata of a sorted segment (nil for
// unsorted, unknown, or doomed segments).
func (l *Log) SegmentMeta(num uint32) *SegmentMeta {
	l.mu.Lock()
	defer l.mu.Unlock()
	if st, ok := l.segs[num]; ok && !st.doomed {
		return st.meta
	}
	return nil
}

// AddGarbage credits n superseded record bytes to a segment. Callers
// (the tablet server) invoke it as versions become unreachable —
// deletes, retention-bound overflows, stale same-timestamp rewrites —
// so Garbage/Size approximates how much of a segment a rewrite would
// reclaim.
func (l *Log) AddGarbage(num uint32, n int64) {
	if n <= 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if st, ok := l.segs[num]; ok {
		st.garbage += n
		if st.garbage > st.size {
			st.garbage = st.size
		}
	}
}

// SetGarbage replaces a segment's garbage counter — the recovery-time
// audit recomputes what Open could not know (counters are in-memory
// and die with the process).
func (l *Log) SetGarbage(num uint32, n int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if st, ok := l.segs[num]; ok {
		if n > st.size {
			n = st.size
		}
		st.garbage = n
	}
}

// Size returns the total live log size in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n int64
	for _, num := range l.order {
		n += l.segs[num].size
	}
	return n
}

// End returns the position one past the last durable byte.
func (l *Log) End() Position {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.endLocked()
}

func (l *Log) endLocked() Position {
	if l.cur == 0 {
		if len(l.order) == 0 {
			return Position{}
		}
		last := l.order[len(l.order)-1]
		return Position{Seg: last, Off: l.segs[last].size}
	}
	return Position{Seg: l.cur, Off: l.segs[l.cur].size}
}

// SegmentWriter writes records (with pre-assigned LSNs) into brand-new
// sorted segments, used by compaction to lay down sorted runs while the
// main log keeps serving appends. Every segment it finishes carries the
// sorted flag, which tells compaction output from an append segment, and
// a footer (the min/max clustering key). Frames gather in a buffer that
// goes to the DFS in one append per writeChunkSize bytes, and with the
// footer when a segment is finished.
type SegmentWriter struct {
	l    *Log
	cur  uint32
	w    *dfs.Writer
	size int64  // logical record-area end: durable bytes plus buf
	buf  []byte // frames not yet written
	nums []uint32

	meta SegmentMeta
	rows int // records in the current segment
}

// writeChunkSize is how many buffered bytes a SegmentWriter gathers
// before it writes them in one DFS append.
const writeChunkSize = 1 << 20

// NewSegmentWriter starts a writer for fresh (not yet installed)
// segments. The segments are live for reads as soon as written but only
// become part of the scan order; InstallCompaction swaps them in as the
// canonical set.
func (l *Log) NewSegmentWriter() *SegmentWriter {
	return &SegmentWriter{l: l}
}

// Append buffers rec (keeping its existing LSN) and returns its pointer.
// The frame is durable once its chunk is written — at the latest by
// Close — so the pointer must not be read before then.
func (s *SegmentWriter) Append(rec *Record) (Ptr, error) {
	n := int64(FrameSize(rec))
	if s.w == nil || s.size+n > s.l.opts.SegmentSize {
		if err := s.finishSegment(); err != nil {
			return Ptr{}, err
		}
		s.l.mu.Lock()
		num, w, err := s.l.newSegmentLocked(true)
		s.l.mu.Unlock()
		if err != nil {
			return Ptr{}, err
		}
		s.cur, s.w, s.size = num, w, segHeaderSize
		s.meta, s.rows = SegmentMeta{}, 0
		s.nums = append(s.nums, num)
	}
	ptr := Ptr{Seg: s.cur, Off: s.size, Len: uint32(n)}
	s.buf = AppendFrame(s.buf, rec)
	s.size += n
	s.noteRecord(rec)
	if len(s.buf) >= writeChunkSize {
		if err := s.flush(); err != nil {
			return Ptr{}, err
		}
	}
	return ptr, nil
}

// flush writes the buffered bytes in one DFS append and only then
// publishes them, so no reader sees the segment's size run past its
// durable bytes. The record area ends at s.size: a footer in the buffer
// lies beyond it.
func (s *SegmentWriter) flush() error {
	if _, err := s.w.Write(s.buf); err != nil {
		return fmt.Errorf("wal: compaction append seg %d: %w", s.cur, err)
	}
	s.l.mu.Lock()
	st := s.l.segs[s.cur]
	st.size += int64(len(s.buf))
	st.dataEnd = s.size
	s.l.mu.Unlock()
	s.buf = s.buf[:0]
	return nil
}

// noteRecord folds one appended record into the pending footer.
func (s *SegmentWriter) noteRecord(rec *Record) {
	k := RecordKey{Table: rec.Table, Group: rec.Group, Key: rec.Key}
	if s.rows == 0 || k.Compare(s.meta.Min) < 0 {
		s.meta.Min = k
	}
	if s.rows == 0 || k.Compare(s.meta.Max) > 0 {
		s.meta.Max = k
	}
	s.rows++
}

// finishSegment writes the current output segment's last frames and its
// footer in one append, then closes it.
func (s *SegmentWriter) finishSegment() error {
	if s.w == nil {
		return nil
	}
	// Every segment holds a record: Append opens one only to add one.
	s.buf = append(s.buf, encodeFooter(&s.meta)...)
	if err := s.flush(); err != nil {
		return err
	}
	m := s.meta // value copy; the writer's meta resets on rotation
	s.l.mu.Lock()
	s.l.segs[s.cur].meta = &m
	s.l.mu.Unlock()
	err := s.w.Close()
	s.w = nil
	return err
}

// Segments returns the segment numbers written so far.
func (s *SegmentWriter) Segments() []uint32 { return append([]uint32(nil), s.nums...) }

// Close finishes the writer, writing what it buffered and sealing the
// last segment with its footer.
func (s *SegmentWriter) Close() error {
	return s.finishSegment()
}

// doomedPath names the removal-intent file: the doomed segments,
// installed whole by an atomic RemoveSegments call before its first
// delete, gone after the last. With one input of a tombstone-vacuuming
// compaction deleted and another left, a restart would replay rows whose
// tombstone is gone.
func (l *Log) doomedPath() string { return l.dir + "/doomed" }

// readDoomed returns the segments the intent file lists (nil: no file).
func (l *Log) readDoomed() (map[uint32]bool, error) {
	b, err := l.fs.ReadFile(l.doomedPath())
	if errors.Is(err, dfs.ErrNotFound) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	doomed := map[uint32]bool{}
	for _, f := range strings.Fields(strings.Trim(string(b), "[]")) {
		n, err := strconv.ParseUint(f, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("wal: removal intent %q: %w", b, err)
		}
		doomed[uint32(n)] = true
	}
	return doomed, nil
}

// RemoveSegments drops the given segments from the live set; files are
// deleted immediately when unpinned, otherwise deletion is deferred to
// the last Unpin (in-flight scanners and readers finish safely against
// the doomed file, while new scans no longer see it). atomic makes the
// removal all-or-nothing across a crash (doomedPath).
func (l *Log) RemoveSegments(atomic bool, nums ...uint32) error {
	l.mu.Lock()
	l.order = slices.DeleteFunc(l.order, func(n uint32) bool { return slices.Contains(nums, n) })
	var deletable []uint32
	for _, n := range nums {
		st, ok := l.segs[n]
		if !ok || st.doomed {
			continue
		}
		st.doomed = true
		l.dooming++
		if l.cur == n {
			l.curW.Close()
			l.cur, l.curW = 0, nil
		}
		if st.pins == 0 {
			deletable = append(deletable, n)
		}
	}
	var err error
	if atomic && len(nums) > 1 {
		// Under the lock that marked the segments, so no Unpin deletes one
		// of them before the intent is durable. It lists every doomed
		// segment, so it replaces an earlier call's unfinished intent.
		var doomed []uint32
		for n, st := range l.segs {
			if st.doomed {
				doomed = append(doomed, n)
			}
		}
		err = l.fs.WriteFile(l.doomedPath(), fmt.Append(nil, doomed))
	}
	l.mu.Unlock()
	if err != nil {
		return fmt.Errorf("wal: removal intent: %w", err)
	}
	var errs []error
	for i, n := range deletable {
		if i == 1 { // crash point: one input is gone, the rest still exist
			if err := l.opts.Faults.FireErr("crash.compact.mid-remove"); err != nil {
				return err
			}
		}
		if err := l.finalizeRemove(n); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// finalizeRemove deletes a doomed, unpinned segment's file and forgets
// its state.
func (l *Log) finalizeRemove(num uint32) error {
	l.mu.Lock()
	st, ok := l.segs[num]
	if !ok || !st.doomed || st.pins != 0 {
		l.mu.Unlock()
		return nil
	}
	delete(l.segs, num)
	if r, ok := l.readers[num]; ok {
		r.Close()
		delete(l.readers, num)
	}
	l.mu.Unlock()
	err := l.fs.Delete(l.SegmentPath(num))
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dooming--; l.dooming == 0 && l.fs.Exists(l.doomedPath()) {
		err = errors.Join(err, l.fs.Delete(l.doomedPath()))
	}
	return err
}
