//go:build !unix

package critpath

import "time"

var processStart = time.Now()

// processCPU falls back to wall time where getrusage is missing.
func processCPU() time.Duration { return time.Since(processStart) }
