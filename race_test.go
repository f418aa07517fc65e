//go:build race

package perfeng

// raceEnabled reports whether the race detector is on. Under it sync.Pool
// drops a random share of Puts, so the scheduler's pooled job records are
// reallocated at random and allocation counts through sched are not exact.
const raceEnabled = true
