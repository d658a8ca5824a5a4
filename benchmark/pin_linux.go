package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

const pinnedEnv = "RDFSUM_BENCH_PINNED"

// pinToOneCPU confines the harness — and with it every rdfsumd it
// starts — to a single CPU, the highest-numbered one it may run on
// (interrupts tend to land on the lowest).
//
// Why: on the 2-vCPU sandbox this benchmark is calibrated on, the
// second vCPU comes and goes — two busy threads sometimes get two CPUs
// and sometimes share one in ~4 ms slices — and a request that hops
// between a client on one vCPU and a server on the other pays a wake-up
// that varies with it. The same run measured 0.15 ms or 0.20 ms per
// query depending on the minute. On one CPU, hand-offs are plain
// context switches and the numbers repeat.
//
// Affinity set on a thread covers only that thread, and the Go runtime
// has already started others; so the calling thread is pinned and the
// process then re-executes itself, which makes the mask the whole new
// process's. The environment variable stops the second pass.
func pinToOneCPU() error {
	if os.Getenv(pinnedEnv) != "" {
		return nil
	}
	runtime.LockOSThread()
	var mask [1024 / 64]uint64
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return fmt.Errorf("sched_getaffinity: %w", errno)
	}
	cpu := -1
	for i := 0; i < int(n)*8; i++ {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpu = i
		}
	}
	if cpu < 0 {
		return fmt.Errorf("sched_getaffinity: empty CPU mask")
	}
	mask = [len(mask)]uint64{}
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return fmt.Errorf("sched_setaffinity(cpu %d): %w", cpu, errno)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	env := append(os.Environ(), fmt.Sprintf("%s=%d", pinnedEnv, cpu))
	return syscall.Exec(exe, os.Args, env) // returns only on failure
}
