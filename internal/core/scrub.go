package core

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/wal"
)

// ScrubDefect locates one unrecoverable range found by a scrub: no
// replica assignment of the segment's blocks yields a clean image, so
// the damage is in the data itself (every copy corrupt), not in a
// single replica.
type ScrubDefect struct {
	Segment uint32
	Off     int64  // byte offset of the first bad frame within the segment
	Detail  string // underlying decode failure
}

func (d ScrubDefect) String() string {
	return fmt.Sprintf("segment %d offset %d: %s", d.Segment, d.Off, d.Detail)
}

// ScrubReport summarises one scrub pass.
type ScrubReport struct {
	Server         string // id of the scrubbed tablet server
	Segments       int    // log segments examined
	Blocks         int    // DFS blocks examined (across all segments)
	ReplicasRead   int    // replica copies read and compared
	RepairedBlocks int    // corrupt replica copies rewritten from a healthy peer
	Unrecoverable  []ScrubDefect
}

// Clean reports whether the scrub found nothing to repair and nothing
// unrecoverable.
func (r ScrubReport) Clean() bool {
	return r.RepairedBlocks == 0 && len(r.Unrecoverable) == 0
}

// scrubMaxAssignments bounds the replica-assignment search per segment.
// Only blocks whose copies diverge contribute choices, so the search is
// tiny unless many blocks of one segment are simultaneously corrupt.
const scrubMaxAssignments = 243 // 3^5

// Scrub walks every log segment, verifies record frames and (for
// sorted segments) footer CRCs against each DFS replica, repairs a
// corrupt replica from a verified-healthy one via re-replication, and
// reports ranges where every replica is corrupt (unrecoverable). A
// second scrub after a repair pass reports zero defects.
//
// The verifier works per replica ASSIGNMENT: it assembles the segment
// image from one chosen copy per block and runs wal.VerifySegment over
// it; an assignment that decodes cleanly end-to-end pins the corruption
// to the copies it excluded. This catches single-replica bit rot that a
// plain read would mask (the DFS serves whichever replica it likes).
func (s *Server) Scrub() (ScrubReport, error) {
	rep := ScrubReport{Server: s.id}
	active := s.log.ActiveSegment()
	for _, si := range s.log.Segments() {
		if err := s.scrubSegment(&rep, si, si.Num == active); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// scrubBlock is one DFS block of a segment with every readable replica
// copy, clamped to the segment-size snapshot.
type scrubBlock struct {
	idx    int   // block index within the file
	off    int64 // offset of the block within the segment
	nids   []int // datanodes whose copy was readable (parallel to copies)
	copies [][]byte
	// variants are the distinct byte-images among copies; variantOf[i]
	// maps copy i to its variant index.
	variants  [][]byte
	variantOf []int
}

func (s *Server) scrubSegment(rep *ScrubReport, si wal.SegmentInfo, activeTail bool) error {
	rep.Segments++
	path := s.log.SegmentPath(si.Num)
	size := si.Size
	infos, err := s.fs.Blocks(path)
	if err != nil {
		return fmt.Errorf("core: scrub %s: %w", path, err)
	}

	var blocks []scrubBlock
	for _, bi := range infos {
		if bi.Offset >= size {
			break // written after the size snapshot
		}
		need := bi.Size
		if bi.Offset+need > size {
			need = size - bi.Offset
		}
		sb := scrubBlock{idx: bi.Index, off: bi.Offset}
		for _, nid := range bi.Replicas {
			data, rerr := s.fs.ReadBlockReplica(path, bi.Index, nid)
			if rerr != nil || int64(len(data)) < need {
				// Dead node or a lagging partial copy: re-replication's
				// problem, not scrub's. Exclude it from the vote.
				continue
			}
			sb.nids = append(sb.nids, nid)
			sb.copies = append(sb.copies, data[:need])
			rep.ReplicasRead++
		}
		if len(sb.copies) == 0 {
			rep.Unrecoverable = append(rep.Unrecoverable, ScrubDefect{
				Segment: si.Num, Off: bi.Offset, Detail: "no readable replica",
			})
			return nil
		}
		for _, c := range sb.copies {
			v := -1
			for j, vb := range sb.variants {
				if bytes.Equal(c, vb) {
					v = j
					break
				}
			}
			if v < 0 {
				v = len(sb.variants)
				sb.variants = append(sb.variants, c)
			}
			sb.variantOf = append(sb.variantOf, v)
		}
		blocks = append(blocks, sb)
		rep.Blocks++
	}

	choice, verr := findCleanAssignment(blocks, size, si.Num, activeTail)
	if choice == nil {
		// Every assignment (or the only one) decodes dirty: the damage is
		// in the data, not one replica. Report, don't repair — a "repair"
		// would just pick one corrupt copy as truth.
		var ce *wal.CorruptionError
		if errors.As(verr, &ce) {
			rep.Unrecoverable = append(rep.Unrecoverable, ScrubDefect{
				Segment: ce.Segment, Off: ce.Off, Detail: ce.Err.Error(),
			})
			return nil
		}
		return verr // I/O error, not a verification verdict
	}

	// A clean assignment exists: every copy disagreeing with its block's
	// chosen variant is a corrupt replica — rewrite it from a healthy
	// peer holding the chosen bytes.
	for bi, sb := range blocks {
		healthy := choice[bi]
		var from int = -1
		for i, v := range sb.variantOf {
			if v == healthy {
				from = sb.nids[i]
				break
			}
		}
		for i, v := range sb.variantOf {
			if v == healthy {
				continue
			}
			if err := s.fs.RepairBlockReplica(path, sb.idx, from, sb.nids[i]); err != nil {
				return fmt.Errorf("core: scrub repair %s block %d dn%d: %w", path, sb.idx, sb.nids[i], err)
			}
			rep.RepairedBlocks++
			s.obs.scrubRepaired.Add(1)
		}
	}
	return nil
}

// findCleanAssignment searches per-block variant choices for one whose
// assembled segment image verifies clean. Returns the chosen variant
// index per block, or (nil, firstError) when none verifies.
func findCleanAssignment(blocks []scrubBlock, size int64, seg uint32, activeTail bool) ([]int, error) {
	choice := make([]int, len(blocks))
	verify := func() error {
		img := make([]byte, 0, size)
		for bi, sb := range blocks {
			img = append(img, sb.variants[choice[bi]]...)
		}
		return wal.VerifySegment(bytes.NewReader(img), int64(len(img)), seg, activeTail)
	}
	firstErr := verify()
	if firstErr == nil {
		return choice, nil
	}
	// Enumerate assignments over the divergent blocks only (single-
	// variant blocks have no alternatives), bounded by
	// scrubMaxAssignments.
	var divergent []int
	for bi, sb := range blocks {
		if len(sb.variants) > 1 {
			divergent = append(divergent, bi)
		}
	}
	if len(divergent) == 0 {
		return nil, firstErr
	}
	tried := 1
	var walk func(d int) ([]int, bool)
	walk = func(d int) ([]int, bool) {
		if d == len(divergent) {
			if tried >= scrubMaxAssignments {
				return nil, false
			}
			tried++
			if verify() == nil {
				out := make([]int, len(choice))
				copy(out, choice)
				return out, true
			}
			return nil, false
		}
		bi := divergent[d]
		for v := range blocks[bi].variants {
			choice[bi] = v
			if out, ok := walk(d + 1); ok {
				return out, true
			}
		}
		choice[bi] = 0
		return nil, false
	}
	if out, ok := walk(0); ok {
		return out, nil
	}
	return nil, firstErr
}
