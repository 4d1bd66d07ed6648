package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
)

// diag is a run's noise diagnostics: host steal time (other guests
// holding this machine's CPUs), the process's CPU time and its GC
// cycles. They are printed beside the metrics and never used to drop
// or correct a run.
type diag struct {
	stealS   float64
	cpuS     float64
	gcCycles float64
}

func readDiag() diag {
	return diag{stealS: stealSeconds(), cpuS: cpuSeconds(), gcCycles: readGC()}
}

func (d diag) since(d0 diag) diag {
	return diag{stealS: d.stealS - d0.stealS, cpuS: d.cpuS - d0.cpuS, gcCycles: d.gcCycles - d0.gcCycles}
}

// clockTicks is USER_HZ, the unit of /proc/stat (100 on Linux).
const clockTicks = 100

// stealSeconds reads the host's cumulative steal time from the "cpu"
// line of /proc/stat (its eighth value); 0 where it is unavailable.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return v / clockTicks
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func readGC() float64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// rssMiB reads the process's resident set from /proc/self/statm.
func rssMiB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // files come and go under a live journal
		}
		if d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
