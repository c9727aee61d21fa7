package dfs

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/simdisk"
)

// DataNode stores block replicas on a simulated disk. A dead datanode
// rejects all I/O until restarted; its on-disk state survives restarts.
type DataNode struct {
	id     int
	rack   int
	disk   *simdisk.Disk
	faults *fault.Registry
	alive  atomic.Bool
	// readPoint and writePoint are the node's fault-point names
	// ("dfs.dn<i>.read"/".write"), formatted once at construction rather
	// than on every block I/O.
	readPoint, writePoint string

	mu    sync.Mutex
	files map[blockID]*simdisk.File
}

func (n *DataNode) setAlive(v bool) {
	n.alive.Store(v)
	if !v {
		n.mu.Lock()
		for _, f := range n.files {
			f.Close()
		}
		n.files = nil
		n.mu.Unlock()
	}
}

// Alive reports whether the node is accepting I/O.
func (n *DataNode) Alive() bool { return n.alive.Load() }

// Disk exposes the node's disk for stats inspection in tests/benches.
func (n *DataNode) Disk() *simdisk.Disk { return n.disk }

var errDeadNode = fmt.Errorf("dfs: datanode is dead")

func (n *DataNode) blockFile(id blockID, create bool) (*simdisk.File, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.files == nil {
		n.files = make(map[blockID]*simdisk.File)
	}
	if f, ok := n.files[id]; ok {
		return f, nil
	}
	name := fmt.Sprintf("blk_%012d", id)
	var (
		f   *simdisk.File
		err error
	)
	if n.disk.Exists(name) {
		f, err = n.disk.Open(name)
	} else if create {
		f, err = n.disk.Create(name)
	} else {
		return nil, fmt.Errorf("dfs: dn%d: block %d not found", n.id, id)
	}
	if err != nil {
		return nil, err
	}
	n.files[id] = f
	return f, nil
}

func (n *DataNode) writeBlock(id blockID, off int64, p []byte) error {
	// The replica-level fault point: killing this node via OnFire, a
	// torn fragment (Partial), a persistent bit flip (FlipBit), or a
	// plain write error on this one replica while the others succeed.
	if o := n.faults.Fire(n.writePoint); o.Injected() {
		if o.Delay > 0 {
			n.disk.Clock().Advance(o.Delay)
		}
		if !n.Alive() { // OnFire may have killed this very node
			return errDeadNode
		}
		if o.FlipBit {
			corrupted := append([]byte(nil), p...)
			fault.Corrupt(corrupted, o.Token)
			p = corrupted
		}
		if o.Partial > 0 && o.Partial < 1 {
			torn := int(float64(len(p)) * o.Partial)
			if err := n.writeBlockBytes(id, off, p[:torn]); err != nil {
				return err
			}
			err := o.Err
			if err == nil {
				err = fault.ErrInjected
			}
			return fmt.Errorf("dfs: dn%d block %d torn after %d/%d bytes: %w",
				n.id, id, torn, len(p), err)
		}
		if o.Err != nil {
			return o.Err
		}
	}
	if !n.Alive() {
		return errDeadNode
	}
	return n.writeBlockBytes(id, off, p)
}

func (n *DataNode) writeBlockBytes(id blockID, off int64, p []byte) error {
	f, err := n.blockFile(id, true)
	if err != nil {
		return err
	}
	_, err = f.WriteAt(p, off)
	return err
}

// readBlock reads length bytes of block id at off into a new buffer.
func (n *DataNode) readBlock(id blockID, off int64, length int) ([]byte, error) {
	buf := make([]byte, length)
	m, err := n.readBlockInto(id, off, buf)
	if err != nil {
		return nil, err
	}
	return buf[:m], nil
}

// readBlockInto reads block id at off straight into p, returning the
// number of bytes read. An injected bit flip corrupts p, the caller's
// copy, and never the stored replica.
func (n *DataNode) readBlockInto(id blockID, off int64, p []byte) (int, error) {
	if o := n.faults.Fire(n.readPoint); o.Injected() {
		if o.Delay > 0 {
			n.disk.Clock().Advance(o.Delay)
		}
		if o.Err != nil {
			return 0, o.Err
		}
		if o.FlipBit {
			m, err := n.readBlockBytes(id, off, p)
			if err == nil && m > 0 {
				fault.Corrupt(p[:m], o.Token)
			}
			return m, err
		}
	}
	return n.readBlockBytes(id, off, p)
}

func (n *DataNode) readBlockBytes(id blockID, off int64, p []byte) (int, error) {
	if !n.Alive() {
		return 0, errDeadNode
	}
	f, err := n.blockFile(id, false)
	if err != nil {
		return 0, err
	}
	m, err := f.ReadAt(p, off)
	if err != nil && m < len(p) {
		return 0, err
	}
	return m, nil
}

func (n *DataNode) truncateBlock(id blockID, size int64) error {
	if !n.Alive() {
		return errDeadNode
	}
	f, err := n.blockFile(id, false)
	if err != nil {
		return err
	}
	return f.Truncate(size)
}

func (n *DataNode) deleteBlock(id blockID) {
	if !n.Alive() {
		return
	}
	n.mu.Lock()
	if f, ok := n.files[id]; ok {
		f.Close()
		delete(n.files, id)
	}
	n.mu.Unlock()
	name := fmt.Sprintf("blk_%012d", id)
	if n.disk.Exists(name) {
		n.disk.Remove(name) //nolint:errcheck // best-effort GC
	}
}
