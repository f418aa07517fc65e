// The search engine: successive halving over a candidate grid, refined
// by hill climbing on the survivors.
//
// Two different statistical standards apply at two different places,
// deliberately:
//
//   - *Pruning* (dropping the slower half of a halving round) ranks by
//     mean ns/op at a small repetition budget. Pruning mistakes are
//     cheap — a good config mistakenly dropped just leaves the
//     incumbent in place — so halving spends its budget where the
//     candidates are, doubling repetitions only for survivors.
//   - *Promotion* (replacing the incumbent champion) is Hasselbring's
//     "benchmarking as empirical standard" bar: stats.Compare at the
//     full budget, significant at alpha AND faster past a practical
//     floor, the same two filters benchgate applies to regressions.
//     The search can therefore never install a config the comparator
//     rejected — TestSearchNeverPromotesRejected holds this as a
//     property over randomized cost surfaces.
package tune

import (
	"fmt"
	"strconv"
	"time"

	"perfeng/internal/stats"
)

// Measurer runs one candidate config for reps repetitions and returns
// the per-repetition ns/op samples. The tunables subpackage builds
// measurers that install cfg via ActivateOne and run the kernel through
// its public entry point, so a trial measures the exact dispatch path
// production uses.
type Measurer func(cfg Config, reps int) ([]float64, error)

// Options tunes the search budget and the promotion bar.
type Options struct {
	// InitialReps is the repetition budget of the first halving round;
	// each round doubles it up to FinalReps (defaults 4 and 10).
	InitialReps int
	FinalReps   int
	// Survivors stops halving when this many candidates remain
	// (default 3); each survivor then gets a full-budget audition.
	Survivors int
	// HillSteps bounds the hill-climbing refinement rounds after
	// halving (default 6); the climb also stops at the first round
	// that promotes nothing.
	HillSteps int
	// Alpha and MinEffect are the promotion bar: Welch significance
	// level and minimum practical relative win (defaults 0.05 and
	// 0.05, matching benchgate's gate thresholds).
	Alpha     float64
	MinEffect float64
	// Neighbors generates hill-climb moves from a config; nil uses
	// DefaultNeighbors.
	Neighbors func(Config) []Config
}

func (o Options) withDefaults() Options {
	if o.InitialReps <= 0 {
		o.InitialReps = 4
	}
	if o.FinalReps < o.InitialReps {
		o.FinalReps = 10
		if o.FinalReps < o.InitialReps {
			o.FinalReps = o.InitialReps
		}
	}
	if o.Survivors <= 0 {
		o.Survivors = 3
	}
	if o.HillSteps < 0 {
		o.HillSteps = 0
	} else if o.HillSteps == 0 {
		o.HillSteps = 6
	}
	if o.Alpha <= 0 {
		o.Alpha = 0.05
	}
	if o.MinEffect <= 0 {
		o.MinEffect = 0.05
	}
	if o.Neighbors == nil {
		o.Neighbors = DefaultNeighbors
	}
	return o
}

// Trial is one measured candidate, kept for the audit trail the CI job
// renders as its markdown summary.
type Trial struct {
	Config Config  `json:"config"`
	Stage  string  `json:"stage"` // "default", "halving-<r>", "survivor", "hillclimb-<r>"
	Reps   int     `json:"reps"`
	MeanNs float64 `json:"mean_ns"`
	Pruned bool    `json:"pruned,omitempty"`
}

// Promotion records one champion replacement and the Welch outcome that
// authorized it.
type Promotion struct {
	From   Config      `json:"from"`
	To     Config      `json:"to"`
	Stage  string      `json:"stage"`
	Delta  float64     `json:"delta"` // relative win of To over From (positive)
	Welch  stats.Welch `json:"welch"`
	Accept bool        `json:"accept"` // always true for applied promotions
}

// Result is the outcome of one kernel×shape search.
type Result struct {
	Kernel  string `json:"kernel"`
	N       int    `json:"n"`
	Default Config `json:"default"`
	Best    Config `json:"best"`
	// Improved is true when Best beat Default through the comparator;
	// false means the defaults survived (Best == Default).
	Improved  bool        `json:"improved"`
	DefaultNs float64     `json:"default_ns"`
	BestNs    float64     `json:"best_ns"`
	Speedup   float64     `json:"speedup"`
	Welch     stats.Welch `json:"welch"`
	// DefaultSamples/BestSamples are the full-budget ns/op series
	// behind the verdict, kept raw so the gate can re-test them.
	DefaultSamples []float64   `json:"default_samples,omitempty"`
	BestSamples    []float64   `json:"best_samples,omitempty"`
	Trials         []Trial     `json:"trials"`
	Promotions     []Promotion `json:"promotions,omitempty"`
}

// Search runs the engine for one kernel×shape: measure the defaults at
// full budget, successively halve grid, audition the survivors, hill
// climb from the champion, and return the audited result. The returned
// Result.Best equals def unless a candidate passed the comparator.
func Search(kernel string, n int, def Config, grid []Config, measure Measurer, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	th := tel.Load()

	res := &Result{Kernel: kernel, N: n, Default: def, Best: def}
	trial := func(cfg Config, stage string, reps int) ([]float64, error) {
		start := time.Now()
		s, err := measure(cfg, reps)
		if err != nil {
			return nil, fmt.Errorf("tune: %s/%s %v: %w", kernel, stage, cfg, err)
		}
		if len(s) < 2 {
			return nil, fmt.Errorf("tune: %s/%s %v: measurer returned %d samples, need >= 2",
				kernel, stage, cfg, len(s))
		}
		th.trials.Inc()
		th.trialSecs.Observe(time.Since(start).Seconds())
		res.Trials = append(res.Trials, Trial{
			Config: cfg, Stage: stage, Reps: reps, MeanNs: stats.Mean(s),
		})
		return s, nil
	}

	defSamples, err := trial(def, "default", opts.FinalReps)
	if err != nil {
		return nil, err
	}
	res.DefaultNs = stats.Mean(defSamples)
	res.DefaultSamples = defSamples
	champ, champSamples := def, defSamples
	th.bestNs.With(kernel).Set(res.DefaultNs)

	// promote applies the comparator; it is the only way champ moves: a
	// significant win of at least MinEffect over the champion.
	promote := func(cfg Config, samples []float64, stage string) bool {
		v, err := stats.Compare(champSamples, samples, opts.Alpha, opts.MinEffect)
		if err != nil || !v.Significant || v.Shift > 0 {
			return false
		}
		res.Promotions = append(res.Promotions, Promotion{
			From: champ, To: cfg, Stage: stage, Delta: -v.Shift, Welch: v.Welch, Accept: true,
		})
		champ, champSamples = cfg, samples
		th.promotions.Inc()
		th.bestNs.With(kernel).Set(stats.Mean(samples))
		return true
	}

	// Successive halving: rank by mean, drop the slower half, double
	// the budget. Candidates equal to the default are skipped — the
	// default is already the incumbent at full budget.
	pool := make([]Config, 0, len(grid))
	seen := map[Config]bool{def: true}
	for _, c := range grid {
		if c.Validate() != nil || seen[c] {
			continue
		}
		seen[c] = true
		pool = append(pool, c)
	}
	reps := opts.InitialReps
	for round := 1; len(pool) > opts.Survivors; round++ {
		stage := "halving-" + strconv.Itoa(round)
		ranked := make([]scored, 0, len(pool))
		for _, cfg := range pool {
			s, err := trial(cfg, stage, reps)
			if err != nil {
				return nil, err
			}
			ranked = append(ranked, scored{cfg, stats.Mean(s)})
		}
		sortScored(ranked)
		keep := (len(ranked) + 1) / 2
		if keep < opts.Survivors {
			keep = opts.Survivors
		}
		pool = pool[:0]
		for i, sc := range ranked {
			if i < keep {
				pool = append(pool, sc.cfg)
				continue
			}
			markPruned(res, sc.cfg, stage)
			th.prunes.Inc()
		}
		if reps < opts.FinalReps {
			reps *= 2
			if reps > opts.FinalReps {
				reps = opts.FinalReps
			}
		}
	}

	// Survivor auditions at full budget, through the comparator.
	for _, cfg := range pool {
		s, err := trial(cfg, "survivor", opts.FinalReps)
		if err != nil {
			return nil, err
		}
		promote(cfg, s, "survivor")
	}

	// Hill climbing from the champion: each round measures the unseen
	// neighbors cheaply, auditions the best-looking one at full
	// budget, and stops at the first round that promotes nothing.
	for step := 1; step <= opts.HillSteps; step++ {
		stage := "hillclimb-" + strconv.Itoa(step)
		nbs := opts.Neighbors(champ)
		cands := make([]scored, 0, len(nbs))
		for _, nb := range nbs {
			if nb.Validate() != nil || seen[nb] {
				continue
			}
			seen[nb] = true
			s, err := trial(nb, stage, opts.InitialReps)
			if err != nil {
				return nil, err
			}
			cands = append(cands, scored{nb, stats.Mean(s)})
		}
		if len(cands) == 0 {
			break
		}
		sortScored(cands)
		s, err := trial(cands[0].cfg, stage, opts.FinalReps)
		if err != nil {
			return nil, err
		}
		if !promote(cands[0].cfg, s, stage) {
			break
		}
	}

	res.Best = champ
	res.BestNs = stats.Mean(champSamples)
	res.BestSamples = champSamples
	res.Improved = champ != def
	res.Speedup = 1
	if res.BestNs > 0 {
		res.Speedup = res.DefaultNs / res.BestNs
	}
	if res.Improved {
		v, _ := stats.Compare(defSamples, champSamples, opts.Alpha, opts.MinEffect)
		res.Welch = v.Welch
	} else {
		res.Welch = stats.Welch{P: 1}
		res.BestNs = res.DefaultNs
		res.BestSamples = defSamples
		res.Speedup = 1
	}
	return res, nil
}

// scored pairs a candidate with its mean ns/op for ranking.
type scored struct {
	cfg  Config
	mean float64
}

// sortScored orders by mean ascending, ties broken by config string for
// determinism (insertion sort: pools are tiny).
func sortScored(s []scored) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0; j-- {
			if s[j].mean < s[j-1].mean ||
				(s[j].mean == s[j-1].mean && s[j].cfg.String() < s[j-1].cfg.String()) {
				s[j], s[j-1] = s[j-1], s[j]
			} else {
				break
			}
		}
	}
}

// markPruned flags the most recent trial of cfg at stage as pruned.
func markPruned(res *Result, cfg Config, stage string) {
	for i := len(res.Trials) - 1; i >= 0; i-- {
		if res.Trials[i].Config == cfg && res.Trials[i].Stage == stage {
			res.Trials[i].Pruned = true
			return
		}
	}
}
