// Live-telemetry hooks for the tuner, following the repo-wide
// EnableTelemetry(reg) pattern: one atomic pointer load on the lookup
// hot path. Disabled, the loaded handles are nil metrics, which no-op,
// so neither Lookup nor the search engine branches on "is telemetry
// on".
package tune

import (
	"sync/atomic"

	"perfeng/internal/telemetry"
)

type telHandles struct {
	lookups    *telemetry.Counter
	hits       *telemetry.Counter
	misses     *telemetry.Counter
	trials     *telemetry.Counter
	prunes     *telemetry.Counter
	promotions *telemetry.Counter
	bestNs     *telemetry.GaugeFamily
	trialSecs  *telemetry.Histogram
}

// tel is never nil: disabled, it holds the handle set of a nil
// registry, whose nil metrics no-op.
var tel atomic.Pointer[telHandles]

func init() { EnableTelemetry(nil) }

// EnableTelemetry publishes tuner activity to reg: cache lookups with
// hit/miss split (the runtime side), and trials, prunes, promotions,
// best-so-far ns/op per kernel and trial wall time (the search side),
// so a tuning run shows up in perfeng serve and the flight recorder
// like any other workload. Passing nil stops publication.
func EnableTelemetry(reg *telemetry.Registry) {
	tel.Store(&telHandles{
		lookups: reg.Counter("perfeng_tune_lookups",
			"Tuning-cache lookups from kernel dispatch paths."),
		hits: reg.Counter("perfeng_tune_lookup_hits",
			"Lookups that found an applicable tuned config."),
		misses: reg.Counter("perfeng_tune_lookup_misses",
			"Lookups with an active table but no shape in range."),
		trials: reg.Counter("perfeng_tune_trials",
			"Candidate configurations measured by the search."),
		prunes: reg.Counter("perfeng_tune_prunes",
			"Candidates dropped by a successive-halving round."),
		promotions: reg.Counter("perfeng_tune_promotions",
			"Champion replacements that passed the Welch-t comparator."),
		bestNs: reg.GaugeFamily("perfeng_tune_best_ns",
			"Best-so-far mean ns/op of the incumbent champion.", "kernel"),
		// 2^-10 s ≈ 1 ms up to 2^6 = 64 s per trial.
		trialSecs: reg.Histogram("perfeng_tune_trial_seconds",
			"Wall-clock duration of one candidate trial.", -10, 6),
	})
}
