package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// A metric is one named, measured value.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile is the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(float64(p) / 100 * float64(len(s))))
	if k < 1 {
		k = 1
	}
	return s[k-1]
}

// tailPercentile is the highest whole percentile with at least ten of n
// samples beyond it, never below the median: with fewer than 20 samples
// it is the median.
func tailPercentile(n int) int {
	if n < 20 {
		return 50
	}
	return 100 * (n - 10) / n
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// zeroStats lists the workloads whose Result.Stats stay zero (they do not
// report network counters), and noProgress those that ignore
// Params.Progress. They are kept out of counter ratios and out of the
// build/simulation split, so no zeros are averaged in.
var (
	zeroStats  = map[string]bool{"pingpong": true, "reduce": true, "summa": true}
	noProgress = map[string]bool{"summa": true}
)

// totals sums the exact counters of the correct, counter-bearing jobs.
type totals struct {
	jobs   int
	cycles int64
	hostNs int64
	c      map[string]int64
}

func sumCounters(recs []rec) totals {
	t := totals{c: map[string]int64{}}
	for _, r := range recs {
		if r.err != nil || r.res == nil || zeroStats[r.name] {
			continue
		}
		t.jobs++
		t.cycles += r.res.Cycles
		t.hostNs += r.hostNs
		for k, v := range counters(r.res.Stats) {
			t.c[k] += v
		}
	}
	return t
}

func (t totals) perJob(names ...string) float64 {
	var s int64
	for _, n := range names {
		s += t.c[n]
	}
	return ratio(float64(s), float64(t.jobs))
}

// A window is a stretch of an untraced pass and the jobs that ended in it.
type window struct {
	dur    time.Duration
	cpuNs  int64
	cycles int64
	ms     []float64
}

// windows splits a pass into windows of size jobs each, in the order the
// jobs ended; a remainder of fewer jobs joins the last window.
func windows(ps pass, size int) []window {
	recs := append([]rec(nil), ps.recs...)
	sort.SliceStable(recs, func(a, b int) bool { return recs[a].end.Before(recs[b].end) })
	var ws []window
	start, cpu0 := ps.start, ps.cpu0
	for i := 0; i < len(recs); {
		j := i + size
		if len(recs)-j < size {
			j = len(recs)
		}
		var w window
		for _, r := range recs[i:j] {
			w.ms = append(w.ms, r.ms())
			if r.err == nil && r.res != nil {
				w.cycles += r.res.Cycles
			}
		}
		last := recs[j-1]
		w.dur, w.cpuNs = last.end.Sub(start), last.cpuEnd-cpu0
		ws = append(ws, w)
		start, cpu0, i = last.end, last.cpuEnd, j
	}
	return ws
}

// endToEnd computes the metrics a user sees from an untraced pass.
//
// The host's speed drifts: on a shared 2-vCPU VM the same job runs up to
// 1.6 times faster for stretches of seconds to minutes, whenever the
// machine's other tenants leave its shared caches alone, and for a share
// of the run that differs from run to run. A whole-run mean or median
// moves with that share. So throughput, median latency and host time per
// simulated cycle are measured per window of a few seconds that holds
// whole rounds of the workload's job mix (workloadDef.window), and each is
// reported for the run's slowest tenth of windows: the speed of a loaded
// host, which most runs reach. The whole-run value is printed
// beside each. The tail latency is taken over the whole run, where it
// already reads the slow stretches.
func endToEnd(setupNs []float64, ps pass, window int) []metric {
	var ms, rss []float64
	var cycles int64
	ok := 0
	for _, r := range ps.recs {
		ms = append(ms, r.ms())
		rss = append(rss, r.rssMB)
		if r.err == nil && r.res != nil {
			ok++
			cycles += r.res.Cycles
		}
	}
	var rates, p50s, nsPerCycle []float64
	ws := windows(ps, window)
	for _, w := range ws {
		rates = append(rates, float64(len(w.ms))/w.dur.Seconds())
		p50s = append(p50s, percentile(w.ms, 50))
		if w.cycles > 0 {
			nsPerCycle = append(nsPerCycle, float64(w.cpuNs)/float64(w.cycles))
		}
	}
	n := len(ps.recs)
	tp := tailPercentile(n)
	perWindow := func(whole string) string {
		return fmt.Sprintf("slowest tenth of %d windows of %d jobs; whole run %s", len(ws), window, whole)
	}
	return []metric{
		{"setup_s", median(setupNs) / 1e9, "s", fmt.Sprintf("median of %d set-ups", len(setupNs))},
		{"jobs_per_s", percentile(rates, 10), "1/s",
			perWindow(fmt.Sprintf("%.4g (%d jobs in %.3f s)", ratio(float64(n), ps.wall.Seconds()), n, ps.wall.Seconds()))},
		{"job_ms_p50", percentile(p50s, 90), "ms", perWindow(fmt.Sprintf("%.4g (n=%d)", percentile(ms, 50), n))},
		{"job_ms_tail", percentile(ms, tp), "ms", fmt.Sprintf("p%d, n=%d", tp, n)},
		{"ns_per_sim_cycle", percentile(nsPerCycle, 90), "ns",
			perWindow(fmt.Sprintf("%.4g; process CPU time (user + system) / simulated cycles", ratio(float64(ps.cpuNs), float64(cycles))))},
		{"sim_cycles_per_job", ratio(float64(cycles), float64(ok)), "cycles", "modelled time; exact"},
		{"alloc_mb_per_job", ratio(float64(ps.allocBytes)/1e6, float64(n)), "MB", ""},
		// Not the peak: on service-mix that hangs on which heavy jobs
		// happen to run at once.
		{"rss_mb_p90", percentile(rss, 90), "MB", fmt.Sprintf("p90 of the process's resident set sampled at each of %d job ends", n)},
	}
}

// layerInputs gathers what the traced run measured besides its pass.
type layerInputs struct {
	topoNs, routeNs        []float64 // per set-up
	buildNs, simNs         []float64 // per job with a build/simulation split
	codecNs, fifoNs, bndNs float64
	overhead               float64
	service                bool
}

// perLayer computes the per-layer metrics of a traced pass.
func perLayer(ps pass, in layerInputs) []metric {
	var submit, queue, run []float64
	replays, matched := 0, 0
	for _, r := range ps.recs {
		if !in.service {
			break // direct jobs have no service timestamps
		}
		submit = append(submit, float64(r.submitNs)/1e3)
		if r.res != nil {
			queue = append(queue, float64(r.queueNs)/1e6)
			run = append(run, float64(r.hostNs)/1e6)
		}
		if r.replay {
			replays++
			if r.err == nil {
				matched++
			}
		}
	}
	t := sumCounters(ps.recs)
	c := func(n string) float64 { return float64(t.c[n]) }
	svc := func(note string) string {
		if !in.service {
			return "n/a: no service layer on this workload"
		}
		return note
	}
	deliv := c("packets_delivered")
	return []metric{
		{"service.submit_us_p50", median(submit), "us", svc("Submit or Replay call")},
		{"service.queue_wait_ms_p50", median(queue), "ms", svc("submitted to started")},
		{"service.run_ms_p50", median(run), "ms", svc("started to finished")},
		{"service.route_cache_hit_ratio", ratio(float64(ps.cache.Hits), float64(ps.cache.Hits+ps.cache.Misses)), "ratio",
			svc(fmt.Sprintf("%d hits, %d misses", ps.cache.Hits, ps.cache.Misses))},
		{"service.replay_match_ratio", ratio(float64(matched), float64(replays)), "ratio", svc(fmt.Sprintf("%d of %d replays", matched, replays))},
		{"routing.compute_ms", median(in.routeNs) / 1e6, "ms", "per set-up, all of the workload's topologies"},
		{"topology.build_us", median(in.topoNs) / 1e3, "us", "per set-up, all of the workload's topologies"},
		{"core.build_ms_p50", median(in.buildNs) / 1e6, "ms", fmt.Sprintf("job start to first Progress callback, n=%d", len(in.buildNs))},
		{"core.sim_ms_p50", median(in.simNs) / 1e6, "ms", fmt.Sprintf("first Progress callback to job end, n=%d", len(in.simNs))},
		{"sim.kernel_ticks_per_cycle", ratio(c("kernel_ticks"), float64(t.cycles)), "1/cycle", fmt.Sprintf("over %d counter-bearing jobs", t.jobs)},
		{"sim.proc_steps_per_cycle", ratio(c("proc_steps"), float64(t.cycles)), "1/cycle", ""},
		{"sim.fifo_commits_per_cycle", ratio(c("fifo_commits"), float64(t.cycles)), "1/cycle", ""},
		{"sim.cycles_executed_frac", ratio(c("cycles_executed"), c("cycles_executed")+c("cycles_skipped")), "ratio", "executed / (executed + skipped)"},
		{"sim.windows", t.perJob("windows"), "count/job", ""},
		{"sim.steals", t.perJob("steals"), "count/job", ""},
		{"sim.syncs", t.perJob("syncs"), "count/job", ""},
		{"sim.host_ns_per_kernel_tick", ratio(float64(t.hostNs), c("kernel_ticks")), "ns", ""},
		{"link.packets_per_cycle", ratio(deliv, float64(t.cycles)), "1/cycle", ""},
		{"link.stalls_per_packet", ratio(c("link_stalls"), deliv), "ratio", ""},
		{"link.retransmits", t.perJob("retransmits"), "count/job", ""},
		{"link.goodput_ratio", ratio(deliv, deliv+c("retransmits")), "ratio", "delivered / (delivered + retransmits)"},
		{"link.crc_errors", t.perJob("crc_errors"), "count/job", ""},
		{"fault.injected", t.perJob("faults_dropped", "faults_corrupted", "faults_flap_lost"), "count/job", ""},
		{"core.failovers", t.perJob("failovers"), "count/job", ""},
		{"core.rescued_packets", t.perJob("rescued_packets"), "count/job", ""},
		{"transport.stream_fragments", t.perJob("stream_fragments"), "count/job", ""},
		{"transport.grants", t.perJob("grants"), "count/job", ""},
		{"packet.codec_ns", in.codecNs, "ns", "Encode + Decode"},
		{"sim.fifo_handoff_ns", in.fifoNs, "ns", "one element, proc to proc over one Fifo"},
		{"sim.boundary_put_pop_ns", in.bndNs, "ns", "one Put + PopReady"},
		{"trace.overhead_frac", in.overhead, "ratio", "traced pass wall / untraced pass wall - 1"},
	}
}
