package main

import (
	"errors"
	"fmt"
	"math/bits"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuSet is a sched_setaffinity mask: one bit per CPU, 1024 CPUs as in
// the C library's cpu_set_t.
type cpuSet [16]uint64

func (m *cpuSet) syscall(trap uintptr, tid int) error {
	_, _, errno := syscall.RawSyscall(trap, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if errno != 0 {
		return errno
	}
	return nil
}

// last returns a mask holding only the highest CPU of m: the one
// interrupts and other processes are least likely to be on.
func (m cpuSet) last() (cpuSet, error) {
	for w := len(m) - 1; w >= 0; w-- {
		if m[w] != 0 {
			var one cpuSet
			one[w] = 1 << (bits.Len64(m[w]) - 1)
			return one, nil
		}
	}
	return m, fmt.Errorf("empty CPU affinity mask")
}

// setAffinity moves every thread of this process onto the CPUs of m.
// Threads and children started afterwards inherit the mask. Two passes,
// because a thread may be created by one not yet moved while the first
// pass walks the list.
func setAffinity(m cpuSet) error {
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			// ESRCH: the thread ended since the directory was read.
			if err := m.syscall(syscall.SYS_SCHED_SETAFFINITY, tid); err != nil && !errors.Is(err, syscall.ESRCH) {
				return fmt.Errorf("sched_setaffinity: %w", err)
			}
		}
	}
	return nil
}

// pinToOneCPU confines the driver, and so every child it starts, to one
// of the CPUs it may run on, and returns the function that undoes it.
func pinToOneCPU() (restore func(), err error) {
	var all cpuSet
	if err := all.syscall(syscall.SYS_SCHED_GETAFFINITY, 0); err != nil {
		return nil, fmt.Errorf("sched_getaffinity: %w", err)
	}
	one, err := all.last()
	if err != nil {
		return nil, err
	}
	if err := setAffinity(one); err != nil {
		return nil, err
	}
	// Restoring can fail only as pinning could, and pinning succeeded.
	return func() { _ = setAffinity(all) }, nil
}
