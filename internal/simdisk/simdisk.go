// Package simdisk models the cost asymmetry between sequential and random
// disk I/O that the LogBase paper's evaluation relies on.
//
// The paper's headline results are seek-count arguments: a log-only store
// pays one sequential append per write, while a WAL+Data store pays the
// append plus an eventual random flush; a dense in-memory index finds a
// record with a single seek, while a sparse block index must fetch a whole
// block. This package charges exactly those costs.
//
// A Disk wraps a directory of ordinary files. Every read or write is
// charged virtual time: a seek penalty whenever the access is not
// contiguous with the previous access to the same file, plus a transfer
// cost proportional to the number of bytes moved. Costs accumulate in a
// Clock and are never realised as wall time: tests and experiments
// assert on virtual time.
package simdisk

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
)

// Model holds the cost parameters of a simulated spinning disk.
type Model struct {
	// SeekLatency is charged whenever an access does not start where the
	// previous access to the same file ended.
	SeekLatency time.Duration
	// ReadBytesPerSec and WriteBytesPerSec are sequential bandwidths.
	ReadBytesPerSec  int64
	WriteBytesPerSec int64
}

// DefaultModel approximates a 7200 RPM commodity disk: 8 ms average seek,
// 100 MB/s sequential transfer.
func DefaultModel() Model {
	return Model{
		SeekLatency:      8 * time.Millisecond,
		ReadBytesPerSec:  100 << 20,
		WriteBytesPerSec: 100 << 20,
	}
}

// Stats are cumulative I/O counters for one Disk.
type Stats struct {
	Seeks        int64
	ReadOps      int64
	WriteOps     int64
	BytesRead    int64
	BytesWritten int64
}

// Clock accumulates virtual I/O time.
type Clock struct {
	ns atomic.Int64
}

// Advance adds d to the clock.
func (c *Clock) Advance(d time.Duration) { c.ns.Add(int64(d)) }

// Elapsed reports total accumulated virtual time.
func (c *Clock) Elapsed() time.Duration { return time.Duration(c.ns.Load()) }

// Reset zeroes the clock.
func (c *Clock) Reset() { c.ns.Store(0) }

// Disk is a directory of files with modelled access costs. It is safe for
// concurrent use.
type Disk struct {
	dir   string
	model Model
	clock *Clock

	// faults, when non-nil, is consulted on every file read and write
	// at readPoint ("<prefix>.read") and writePoint ("<prefix>.write"),
	// named once in SetFaults rather than on every I/O.
	faults                *fault.Registry
	readPoint, writePoint string

	mu sync.Mutex
	// One head per spindle: an access seeks unless it starts exactly
	// where the previous access (to any file) ended. This is what makes
	// interleaved writes to multiple logs on one disk more expensive
	// than one sequential log — the §3.4 argument.
	headFile string
	headOff  int64
	headSet  bool
	stats    Stats
}

// New creates (or reuses) the directory dir and returns a Disk over it.
// If clock is nil a private clock is allocated.
func New(dir string, model Model, clock *Clock) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("simdisk: create %s: %w", dir, err)
	}
	if clock == nil {
		clock = &Clock{}
	}
	return &Disk{dir: dir, model: model, clock: clock}, nil
}

// SetFaults attaches a fault registry. Reads fire "<prefix>.read" and
// writes "<prefix>.write"; injected Delay advances the virtual clock
// like a modelled cost. Call before issuing I/O.
func (d *Disk) SetFaults(reg *fault.Registry, prefix string) {
	d.faults = reg
	d.readPoint, d.writePoint = prefix+".read", prefix+".write"
}

// Clock returns the disk's virtual clock.
func (d *Disk) Clock() *Clock { return d.clock }

// Stats returns a snapshot of the cumulative counters.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetStats zeroes the counters (the clock is left untouched).
func (d *Disk) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats = Stats{}
}

// charge computes and applies the cost of an access of n bytes at offset
// off in file name. write selects the write bandwidth.
func (d *Disk) charge(name string, off, n int64, write bool) {
	d.mu.Lock()
	seek := !d.headSet || d.headFile != name || d.headOff != off
	d.headFile, d.headOff, d.headSet = name, off+n, true
	if seek {
		d.stats.Seeks++
	}
	if write {
		d.stats.WriteOps++
		d.stats.BytesWritten += n
	} else {
		d.stats.ReadOps++
		d.stats.BytesRead += n
	}
	m := d.model
	d.mu.Unlock()

	var cost time.Duration
	if seek {
		cost += m.SeekLatency
	}
	bw := m.ReadBytesPerSec
	if write {
		bw = m.WriteBytesPerSec
	}
	if bw > 0 {
		cost += time.Duration(float64(n) / float64(bw) * float64(time.Second))
	}
	if cost > 0 {
		d.clock.Advance(cost)
	}
}

func (d *Disk) path(name string) string { return filepath.Join(d.dir, name) }

// File is a handle to one simulated file.
type File struct {
	d    *Disk
	name string
	f    *os.File
}

// Create creates or truncates a file.
func (d *Disk) Create(name string) (*File, error) {
	p := d.path(name)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return nil, fmt.Errorf("simdisk: mkdir for %s: %w", name, err)
	}
	f, err := os.Create(p)
	if err != nil {
		return nil, fmt.Errorf("simdisk: create %s: %w", name, err)
	}
	return &File{d: d, name: name, f: f}, nil
}

// Open opens an existing file for reading and appending.
func (d *Disk) Open(name string) (*File, error) {
	f, err := os.OpenFile(d.path(name), os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("simdisk: open %s: %w", name, err)
	}
	return &File{d: d, name: name, f: f}, nil
}

// Remove deletes a file.
func (d *Disk) Remove(name string) error {
	if err := os.Remove(d.path(name)); err != nil {
		return fmt.Errorf("simdisk: remove %s: %w", name, err)
	}
	return nil
}

// Exists reports whether the named file exists.
func (d *Disk) Exists(name string) bool {
	_, err := os.Stat(d.path(name))
	return err == nil
}

// WriteAt writes p at offset off, charging seek + transfer cost.
// Injected faults can tear the write (a prefix reaches disk, then an
// error), flip a bit of the payload on its way down, add latency, or
// fail it outright.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	if o := f.d.faults.Fire(f.d.writePoint); o.Injected() {
		if o.Delay > 0 {
			f.d.clock.Advance(o.Delay)
		}
		if o.FlipBit {
			corrupted := append([]byte(nil), p...)
			fault.Corrupt(corrupted, o.Token)
			p = corrupted
		}
		if o.Partial > 0 && o.Partial < 1 {
			n := int(float64(len(p)) * o.Partial)
			if _, werr := f.writeAt(p[:n], off); werr != nil {
				return 0, werr
			}
			err := o.Err
			if err == nil {
				err = fault.ErrInjected
			}
			return n, fmt.Errorf("simdisk: write %s@%d torn after %d/%d bytes: %w",
				f.name, off, n, len(p), err)
		}
		if o.Err != nil {
			return 0, fmt.Errorf("simdisk: write %s@%d: %w", f.name, off, o.Err)
		}
	}
	return f.writeAt(p, off)
}

func (f *File) writeAt(p []byte, off int64) (int, error) {
	f.d.charge(f.name, off, int64(len(p)), true)
	n, err := f.f.WriteAt(p, off)
	if err != nil {
		return n, fmt.Errorf("simdisk: write %s@%d: %w", f.name, off, err)
	}
	return n, nil
}

// ReadAt reads len(p) bytes at offset off, charging seek + transfer cost.
// Injected faults can fail the read, delay it, or flip a bit of the
// returned data (the on-disk bytes stay intact — a transient read
// corruption, as opposed to a write-path flip which persists).
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if o := f.d.faults.Fire(f.d.readPoint); o.Injected() {
		if o.Delay > 0 {
			f.d.clock.Advance(o.Delay)
		}
		if o.Err != nil {
			return 0, fmt.Errorf("simdisk: read %s@%d: %w", f.name, off, o.Err)
		}
		if o.FlipBit {
			n, err := f.readAt(p, off)
			if n > 0 {
				fault.Corrupt(p[:n], o.Token)
			}
			return n, err
		}
	}
	return f.readAt(p, off)
}

func (f *File) readAt(p []byte, off int64) (int, error) {
	f.d.charge(f.name, off, int64(len(p)), false)
	n, err := f.f.ReadAt(p, off)
	if err != nil {
		return n, err // callers depend on io.EOF passing through
	}
	return n, nil
}

// Truncate cuts the file to size bytes. No transfer cost is charged:
// truncation is a metadata operation.
func (f *File) Truncate(size int64) error {
	if err := f.f.Truncate(size); err != nil {
		return fmt.Errorf("simdisk: truncate %s: %w", f.name, err)
	}
	return nil
}

// Close closes the handle.
func (f *File) Close() error {
	if err := f.f.Close(); err != nil {
		return fmt.Errorf("simdisk: close %s: %w", f.name, err)
	}
	return nil
}
