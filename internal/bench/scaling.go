package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/workload"
)

func init() {
	register("scaling", "Simulator scaling: dense scan vs event scheduler vs shard-adaptive at 8..1024 ranks", scaling)
}

// scalingRanks are the supported sweep points; workload.Grid decomposes
// each into the same 2D torus the sweep has always used. The dense
// reference scan is only run up to denseRankLimit — its per-cycle
// full-component sweep makes the big points prohibitively slow, and the
// event scheduler (verified against dense at every small point) serves
// as the baseline beyond it.
var scalingRanks = map[int]bool{8: true, 16: true, 32: true, 64: true, 256: true, 1024: true}

const denseRankLimit = 64

// scalingGoMaxProcs is the GOMAXPROCS axis for the sharded rows: the
// serial baselines (dense, event) run pinned at 1, the shard-adaptive
// scheduler at both points so the JSON records what parallelism the
// host actually granted each measurement.
var scalingGoMaxProcs = []int{1, 4}

// ScalingRow is one (workload, ranks, scheduler, shards, gomaxprocs)
// measurement.
type ScalingRow struct {
	Workload  string `json:"workload"`
	Ranks     int    `json:"ranks"`
	Scheduler string `json:"scheduler"`
	Shards    int    `json:"shards"`
	// HostCPUs and GoMaxProcs record the parallel hardware behind the
	// wall-clock number: the machine's logical CPU count and the Go
	// scheduler's processor limit during this run. A shard row measured
	// with host_cpus=1 documents barrier overhead, not speedup.
	HostCPUs   int   `json:"host_cpus"`
	GoMaxProcs int   `json:"gomaxprocs"`
	Syncs      int64 `json:"syncs,omitempty"`
	// Windows and Steals are the adaptive scheduler's effort counters:
	// per-boundary lookahead windows opened, and ranks moved between
	// worker slots by the deterministic rebalance rule.
	Windows int64 `json:"windows,omitempty"`
	Steals  int64 `json:"steals,omitempty"`
	// PerShard carries each shard's effort counters (including its sync
	// count) for sharded rows — the load-balance signal.
	PerShard       []sim.ShardEffort `json:"per_shard,omitempty"`
	Cycles         int64             `json:"cycles"`
	CyclesExecuted int64             `json:"cycles_executed"`
	CyclesSkipped  int64             `json:"cycles_skipped"`
	KernelTicks    int64             `json:"kernel_ticks"`
	WallMs         float64           `json:"wall_ms"`
	NsPerCycle     float64           `json:"ns_per_simulated_cycle"`
}

// scalingJSON is the BENCH_scaling.json document: every row of the
// sweep (the baseline rows included, so the improvement and its
// reference live in the same file) plus the headline ratios.
type scalingJSON struct {
	Description string `json:"description"`
	// HostCPUs is the logical CPU count of the machine that produced the
	// document (every row repeats it alongside its own gomaxprocs).
	HostCPUs int          `json:"host_cpus"`
	Rows     []ScalingRow `json:"rows"`
	// SpeedupAtMax is baseline wall-clock / event wall-clock per workload
	// at the largest rank count measured (baseline = dense where it ran,
	// event otherwise).
	SpeedupAtMax map[string]float64 `json:"wall_clock_speedup_at_max_ranks"`
	// AdaptiveSpeedupAtMax is event wall-clock / shard-adaptive
	// wall-clock per workload at the largest rank count, highest
	// GOMAXPROCS point. Without real cores behind GOMAXPROCS this
	// measures the lookahead algorithm, not parallel speedup.
	AdaptiveSpeedupAtMax map[string]float64 `json:"adaptive_wall_clock_speedup_at_max_ranks"`
	MaxRanks             int                `json:"max_ranks"`
}

// scalingRun executes one workload at one rank count under one
// scheduler, pinned at the given GOMAXPROCS, and reports the
// measurement. Dispatch goes through the workload registry — the same
// resolution path smid uses — with the registry defaults reproducing
// the sweep's historical problem sizes.
func scalingRun(name string, ranks int, kind sim.SchedulerKind, shards, gomaxprocs int) (ScalingRow, error) {
	row := ScalingRow{Workload: name, Ranks: ranks, Scheduler: kind.String(), Shards: shards}
	if gomaxprocs > 0 {
		prev := runtime.GOMAXPROCS(gomaxprocs)
		defer runtime.GOMAXPROCS(prev)
	}
	row.HostCPUs = runtime.NumCPU()
	row.GoMaxProcs = runtime.GOMAXPROCS(0)
	params := workload.Params{Ranks: ranks, Scheduler: kind}
	if shards > 1 {
		params.Shards = shards
	}
	if name == "bcast" {
		params.RoutingPolicy = routing.UpDown
	}
	start := time.Now()
	res, err := workload.Run(name, params)
	if err != nil {
		return row, err
	}
	wall := time.Since(start)
	row.Syncs = res.Stats.Sched.Syncs
	row.Windows = res.Stats.Sched.Windows
	row.Steals = res.Stats.Sched.Steals
	row.PerShard = res.Stats.Sched.PerShard
	row.Cycles = res.Cycles
	row.CyclesExecuted = res.Stats.Sched.CyclesExecuted
	row.CyclesSkipped = res.Stats.Sched.CyclesSkipped
	row.KernelTicks = res.Stats.Sched.KernelTicks
	row.WallMs = float64(wall.Nanoseconds()) / 1e6
	if res.Cycles > 0 {
		row.NsPerCycle = float64(wall.Nanoseconds()) / float64(res.Cycles)
	}
	return row, nil
}

// scaling sweeps stencil and broadcast over growing rank counts, running
// each point under the event scheduler and the adaptive-lookahead
// scheduler (the latter at GOMAXPROCS 1 and 4), plus the dense reference
// scan at the small points. Every scheduler must finish every run on the identical cycle —
// the sweep fails on any divergence — and the slowest available
// scheduler is the baseline the wall-clock improvements are quoted
// against.
func scaling(opts Options) (*Report, error) {
	rankSet := opts.Ranks
	if len(rankSet) == 0 {
		rankSet = []int{8, 16, 32, 64, 256, 1024}
		if opts.Quick {
			rankSet = []int{8}
		}
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = 4
	}
	workloads := []string{"stencil", "bcast"}
	if opts.Workload != "" {
		workloads = []string{opts.Workload}
	}

	r := &Report{
		ID:     "scaling",
		Title:  "Wall-clock per simulated cycle: dense scan vs event scheduler vs shard-adaptive",
		Header: []string{"workload", "ranks", "cycles", "skipped%", "dense ms", "event ms", "adapt ms", "shards", "syncs", "windows", "steals", "speedup"},
		Notes: []string{
			"all schedulers must (and do) finish every run on the identical cycle;",
			"'skipped%' is the share of simulated cycles the event scheduler fast-forwarded;",
			"dense rows stop at 64 ranks (the reference scan is too slow beyond);",
			"'speedup' is dense/event wall clock where dense ran, else event/adapt;",
			"the adapt column is the GOMAXPROCS=4 measurement (the JSON also carries",
			"the GOMAXPROCS=1 rows); wall-clock wins need host_cpus > 1",
		},
	}
	doc := scalingJSON{
		Description:          "smibench scaling: identical workloads under the dense reference scan, the event scheduler, and the adaptive-lookahead scheduler with work stealing; sharded rows are measured at GOMAXPROCS 1 and 4",
		HostCPUs:             runtime.NumCPU(),
		SpeedupAtMax:         map[string]float64{},
		AdaptiveSpeedupAtMax: map[string]float64{},
	}
	for _, w := range workloads {
		for _, ranks := range rankSet {
			if !scalingRanks[ranks] {
				return nil, fmt.Errorf("scaling: unsupported rank count %d (have 8, 16, 32, 64, 256, 1024)", ranks)
			}
			sh := shards
			if sh > ranks {
				sh = ranks
			}
			var dense ScalingRow
			haveDense := ranks <= denseRankLimit
			if haveDense {
				var err error
				dense, err = scalingRun(w, ranks, sim.SchedDense, 1, 1)
				if err != nil {
					return nil, fmt.Errorf("scaling %s/%d dense: %w", w, ranks, err)
				}
			}
			event, err := scalingRun(w, ranks, sim.SchedEvent, 1, 1)
			if err != nil {
				return nil, fmt.Errorf("scaling %s/%d event: %w", w, ranks, err)
			}
			if haveDense && dense.Cycles != event.Cycles {
				return nil, fmt.Errorf("scaling %s/%d: dense finished at cycle %d, event at %d — scheduler parity broken",
					w, ranks, dense.Cycles, event.Cycles)
			}
			if haveDense {
				doc.Rows = append(doc.Rows, dense)
			}
			doc.Rows = append(doc.Rows, event)

			// The sharded scheduler sweeps the GOMAXPROCS axis; the last
			// point (the widest) feeds the table and headline ratios.
			var adaptive ScalingRow
			for _, gmp := range scalingGoMaxProcs {
				adaptive, err = scalingRun(w, ranks, sim.SchedShardAdaptive, sh, gmp)
				if err != nil {
					return nil, fmt.Errorf("scaling %s/%d shard-adaptive: %w", w, ranks, err)
				}
				if adaptive.Cycles != event.Cycles {
					return nil, fmt.Errorf("scaling %s/%d: adaptive finished at cycle %d, event at %d — scheduler parity broken",
						w, ranks, adaptive.Cycles, event.Cycles)
				}
				doc.Rows = append(doc.Rows, adaptive)
			}

			speedup, denseMs := 0.0, "-"
			if haveDense {
				denseMs = f2(dense.WallMs)
				if event.WallMs > 0 {
					speedup = dense.WallMs / event.WallMs
				}
			} else if adaptive.WallMs > 0 {
				speedup = event.WallMs / adaptive.WallMs
			}
			skipped := 100 * float64(event.CyclesSkipped) / float64(event.Cycles)
			r.Rows = append(r.Rows, []string{
				w, fmt.Sprintf("%d", ranks), fmt.Sprintf("%d", event.Cycles),
				f1(skipped), denseMs, f2(event.WallMs), f2(adaptive.WallMs),
				fmt.Sprintf("%d", sh), fmt.Sprintf("%d", adaptive.Syncs),
				fmt.Sprintf("%d", adaptive.Windows), fmt.Sprintf("%d", adaptive.Steals),
				f2(speedup),
			})
			if ranks == rankSet[len(rankSet)-1] {
				doc.SpeedupAtMax[w] = speedup
				if adaptive.WallMs > 0 {
					doc.AdaptiveSpeedupAtMax[w] = event.WallMs / adaptive.WallMs
				}
				doc.MaxRanks = ranks
				r.metric(fmt.Sprintf("%s_%dranks_speedup", w, ranks), speedup)
			}
		}
	}
	js, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return nil, err
	}
	r.JSON = append(js, '\n')
	return r, nil
}
