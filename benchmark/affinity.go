package main

// CPU placement. On a two-vCPU guest the host decides, second by
// second, whether the two vCPUs run on separate cores or share one, and
// two busy threads then run at anything between full and half speed
// (two pure-ALU loops side by side: 107 ms per slice for the first
// second after an idle spell, 53 ms from then on). One busy thread does
// not depend on that placement. So everything measured runs on one CPU:
// the benchmark process, the in-process deployments with it, is
// restricted to the last CPU it is allowed and runs with GOMAXPROCS 1,
// and the server subprocess of wire-oltp to the first.

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a kernel CPU affinity mask (room for 1024 CPUs).
type cpuMask [16]uint64

func (m *cpuMask) cpus() []int {
	var out []int
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			out = append(out, i)
		}
	}
	return out
}

func oneCPU(cpu int) *cpuMask {
	var m cpuMask
	m[cpu/64] = 1 << (cpu % 64)
	return &m
}

// getAffinity and setAffinity act on one thread; tid 0 is the caller's.
func getAffinity(tid int) (*cpuMask, error) {
	var m cpuMask
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return nil, e
	}
	return &m, nil
}

func setAffinity(tid int, m *cpuMask) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if e != 0 {
		return e
	}
	return nil
}

// placement is where the measured processes run; the zero value (a box
// with one CPU, or one that refuses sched_setaffinity) places nothing.
type placement struct {
	pinned       bool
	self, server int
}

func (p placement) String() string {
	if !p.pinned {
		return "unpinned"
	}
	return fmt.Sprintf("benchmark on cpu %d, server subprocess on cpu %d", p.self, p.server)
}

// placeSelf restricts every thread of this process to the last CPU it
// may use and sets GOMAXPROCS to 1. Threads made later inherit the mask
// of the thread that makes them, so two passes over /proc/self/task
// catch one made in between.
func placeSelf() placement {
	runtime.GOMAXPROCS(1)
	m, err := getAffinity(0)
	if err != nil {
		return placement{}
	}
	cpus := m.cpus()
	if len(cpus) < 2 {
		return placement{}
	}
	p := placement{pinned: true, self: cpus[len(cpus)-1], server: cpus[0]}
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return placement{}
		}
		for _, t := range tasks {
			tid, _ := strconv.Atoi(t.Name())
			if err := setAffinity(tid, oneCPU(p.self)); err != nil && err != syscall.ESRCH {
				return placement{}
			}
		}
	}
	return p
}

// startOn starts cmd restricted to the server's CPU: a child inherits
// the affinity of the thread that forks it.
func (p placement) startOn(cmd *exec.Cmd) error {
	if !p.pinned {
		return cmd.Start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, oneCPU(p.server)); err != nil {
		return cmd.Start()
	}
	err := cmd.Start()
	// Back to our own CPU; the thread goes back to the pool.
	if rerr := setAffinity(0, oneCPU(p.self)); rerr != nil && err == nil {
		cmd.Process.Kill()
		cmd.Wait()
		return fmt.Errorf("restore affinity: %w", rerr)
	}
	return err
}
