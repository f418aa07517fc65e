//go:build unix

package critpath

import (
	"syscall"
	"time"
)

// processCPU returns the CPU time this process has used. Unlike wall
// time, it does not grow while another process holds the CPU.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
