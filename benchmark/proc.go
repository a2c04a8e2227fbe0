package main

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// procStats is one process's own resource counters at an instant. The
// subject reports its own, the driver reads its own, and the two are
// never mixed: cost metrics come from the subject's alone.
type procStats struct {
	AtNs       int64  `json:"at_ns"`  // the process's monotonic clock at the reading
	CPUNs      int64  `json:"cpu_ns"` // user+sys of every thread, to the nanosecond
	CPUSysNs   int64  `json:"cpu_sys_ns"`
	VolCtx     int64  `json:"vol_ctx"`
	HWMKB      int64  `json:"hwm_kb"`
	Mallocs    uint64 `json:"mallocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
	NumGC      uint32 `json:"num_gc"`
}

// procStart anchors AtNs; only differences of AtNs are ever used.
var procStart = time.Now()

// processCPUNs reads CLOCK_PROCESS_CPUTIME_ID. getrusage splits the
// same total into user and system time, but brings a thread that is
// running on another CPU up to date only at its next tick; this clock
// asks every running thread's scheduler for its time so far, which is
// what makes a 100 ms segment measurable.
func processCPUNs() int64 {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return ts.Nano()
}

// readProcStats reads getrusage; withMem adds runtime.MemStats (a brief
// stop-the-world, so the driver asks for it only at segment edges).
func readProcStats(withMem bool) procStats {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	p := procStats{
		AtNs:     int64(time.Since(procStart)),
		CPUNs:    processCPUNs(),
		CPUSysNs: ru.Stime.Nano(),
		VolCtx:   ru.Nvcsw,
		HWMKB:    vmHWMKB(),
	}
	if withMem {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		p.Mallocs, p.AllocBytes, p.NumGC = ms.Mallocs, ms.TotalAlloc, ms.NumGC
	}
	return p
}

// vmHWMKB reads the peak resident set from /proc/self/status (0 where
// the file or the field is missing).
func vmHWMKB() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := bytes.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseInt(string(f[0]), 10, 64)
				return kb
			}
		}
	}
	return 0
}
