// Command perfbench is the repository benchmark. It runs one workload in
// one process, checks the output of every job against reference.json,
// and prints every metric by name and unit; the last line of standard
// output is a JSON document with the keys correct, attempted, failed and
// metrics. Run it from the repository root:
//
//	bash perfbench/run.sh --workload stencil64-adaptive-faults --seed 1 --seconds 50 --trace 0
//
// Workloads (see workloads.go for why each exists and which layers it
// isolates or bypasses): stencil64-adaptive-faults and service-mix, the
// two in BENCHMARK.json, and bcast64-event, kept for profiling the event
// core by itself; BENCHMARK.json leaves it out so that its two workloads
// get runs long enough to be steady within the time the whole benchmark
// may take. The seed fixes each client's job sequence, the fault seed
// of every job and which jobs are replayed; the default seed is 1 and
// seed 2026 is held out for checking a claimed gain. --seconds fixes the
// number of jobs (a run executes the same jobs whatever its timing). The
// process runs at GOMAXPROCS 1 (see gomaxprocs).
//
// A run sets up its inputs several times (topology builds, route
// computation, and for service-mix a smid start and drain) and reports
// the median as setup_s, checks what needs checking once (the stencil
// grid against apps.StencilReference under faults and failover), warms
// up with one job, then runs the job list untraced. Throughput, median
// latency and host time per simulated cycle are reported for the run's
// slowest tenth of measurement windows, because the host's speed drifts
// (see endToEnd). --trace 1 runs the
// job list a second time with spans recorded around every layer call,
// times the layer probes, prints the per-layer metrics instead of the
// end-to-end ones, and writes the spans to
// $CARGO_TARGET_DIR/traces/<workload>-seed<n>.json (default .bench_build).
// Every job of the traced pass must reproduce the untraced pass's
// digests and exact counters.
//
// -record <file> runs every job any seed can produce once and writes its
// reference values to <file>.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	// gomaxprocs pins the Go scheduler to one thread. The clients, smid
	// workers and shard worker slots stay concurrent, but on a shared
	// 2-vCPU host two busy threads double a run's exposure to the time
	// the hypervisor gives to other tenants (steal). In paired runs on
	// such a host the run-to-run spread of job_ms_tail (quartile distance
	// over median) was 0.16 on stencil64-adaptive-faults and 0.81 on
	// service-mix with two threads, against 0.08 and 0.04 with one.
	// Simulated cycles, digests and exact counters do not depend on it.
	gomaxprocs  = 1
	defaultSeed = 1
	heldOutSeed = 2026
	setupReps   = 51
	// bcastCycles is the bcast/64 event-scheduler row of BENCH_scaling.json.
	bcastCycles = 57254
)

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", defaultSeed, "workload seed")
	seconds := flag.Int("seconds", 50, "run length; fixes the number of jobs")
	traced := flag.Int("trace", 0, "1: run the traced pass and print the per-layer metrics")
	recordTo := flag.String("record", "", "write reference values for every job to this file and exit")
	flag.Parse()
	if *recordTo != "" {
		if err := record(*recordTo); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	w, err := lookup(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if err := bench(w, *seed, *seconds, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// outcome counts the checked operations of a run.
type outcome struct{ attempted, failed int }

func (o *outcome) add(what string, err error) {
	o.attempted++
	if err != nil {
		o.failed++
		fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", what, err)
	}
}

// describe names a job and the spec it ran, for failure reports.
func describe(r rec) string {
	if r.spec.Workload != "" {
		b, _ := json.Marshal(r.spec) // a JobSpec always marshals
		return fmt.Sprintf("%s replay=%v spec=%s", r.key, r.replay, b)
	}
	p := r.params
	f, _ := json.Marshal(p.Faults) // a fault.Spec always marshals
	return fmt.Sprintf("%s workload=%s ranks=%d size=%d steps=%d scheduler=%v shards=%d policy=%v faults=%s",
		r.key, r.name, p.Ranks, p.Size, p.Steps, p.Scheduler, p.Shards, p.RoutingPolicy, f)
}

func bench(w workloadDef, seed int64, seconds int, traced bool) error {
	refs, err := loadReference()
	if err != nil {
		return err
	}
	runtime.GOMAXPROCS(gomaxprocs)
	blocks := w.blocks(seconds)
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%v host_cpus=%d gomaxprocs=%d go=%s default_seed=%d held_out_seed=%d\n",
		w.name, seed, seconds, traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), defaultSeed, heldOutSeed)
	fmt.Printf("# why: %s\n", w.why)

	// The first set-up of a process pays for its heap growing; it is not
	// timed.
	if _, err := w.setup(seed, blocks); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	var p *plan
	var setupNs, topoNs, routeNs []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		if p, err = w.setup(seed, blocks); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setupNs = append(setupNs, float64(time.Since(t0).Nanoseconds()))
		topoNs = append(topoNs, float64(p.topoNs))
		routeNs = append(routeNs, float64(p.routeNs))
	}

	var out outcome
	chk := newChecker(refs)
	switch w.name {
	case "bcast64-event":
		var err error
		if c := refs["bcast64-event"].Cycles; c != bcastCycles {
			err = fmt.Errorf("reference has %d cycles, BENCH_scaling.json has %d", c, bcastCycles)
		}
		out.add("bcast reference cycles", err)
	case "stencil64-adaptive-faults":
		out.add("stencil grid against apps.StencilReference under faults and failover", checkStencilGrid(p.direct[0]))
	}
	first := p.jobs()[0]
	res, err := runOnce(p, first)
	out.add("warm-up "+first.key, chk.check(first.key, res, err))

	untraced, err := runPass(p, chk, nil)
	if err != nil {
		return err
	}
	var layers []metric
	var tr *tracer
	if traced {
		tr = newTracer()
		in := layerInputs{topoNs: topoNs, routeNs: routeNs, service: p.clients != nil}
		if in.codecNs, err = probeCodec(); err != nil {
			return err
		}
		if in.fifoNs, err = probeFifoHandoff(); err != nil {
			return err
		}
		if in.bndNs, err = probeBoundary(); err != nil {
			return err
		}
		tp, err := runPass(p, chk, tr)
		if err != nil {
			return err
		}
		for _, r := range tp.recs {
			out.add(describe(r), r.err)
		}
		splits := tp.recs
		if in.service {
			if splits, err = splitService(p, chk, tr, &out); err != nil {
				return err
			}
		}
		for _, r := range splits {
			if r.buildNs >= 0 && !noProgress[r.name] {
				in.buildNs = append(in.buildNs, float64(r.buildNs))
				in.simNs = append(in.simNs, float64(r.simNs))
			}
		}
		in.overhead = tp.wall.Seconds()/untraced.wall.Seconds() - 1
		layers = perLayer(tp, in)
	}
	for _, r := range untraced.recs {
		out.add(describe(r), r.err)
	}

	e2e := endToEnd(setupNs, untraced, w.window)
	e2e = append(e2e, metric{"jobs_failed_frac", ratio(float64(out.failed), float64(out.attempted)), "ratio",
		fmt.Sprintf("%d of %d checked operations", out.failed, out.attempted)})

	fmt.Printf("# jobs=%d counters_fingerprint=%s\n", len(untraced.recs), chk.fingerprint())
	if len(chk.drift) == 0 {
		fmt.Println("# exact counters: identical to reference.json for every job")
	}
	drifted := make([]string, 0, len(chk.drift))
	for k := range chk.drift {
		drifted = append(drifted, k)
	}
	sort.Strings(drifted)
	for _, k := range drifted {
		fmt.Printf("# exact counters of %s differ from reference.json: %s\n", k, chk.drift[k])
	}
	fmt.Println("# counter hygiene: pingpong, reduce and summa leave Result.Stats zero and are kept out of counter ratios; summa ignores Progress and is kept out of the build/simulation split")
	printMetrics("end-to-end", e2e)
	report := e2e[:len(e2e)-1] // jobs_failed_frac rides in "failed"
	if traced {
		printMetrics("per-layer", layers)
		for _, st := range tr.selfTimes() {
			fmt.Printf("# span %-20s n=%-6d total_ms=%-12.3f self_ms=%.3f\n", st.name, st.count, st.totalMs, st.selfMs)
		}
		dir := os.Getenv("CARGO_TARGET_DIR")
		if dir == "" {
			dir = ".bench_build"
		}
		path := filepath.Join(dir, "traces", fmt.Sprintf("%s-seed%d.json", w.name, seed))
		if err := tr.write(path); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Printf("# trace written to %s\n", path)
		report = layers
	}

	doc := map[string]any{"correct": out.failed == 0, "attempted": out.attempted, "failed": out.failed}
	ms := map[string]any{}
	for _, m := range report {
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	doc["metrics"] = ms
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// splitReps is how often each distinct service-mix job is run directly to
// split it into cluster build and simulation.
const splitReps = 3

// splitService times the build/simulation split of every distinct
// service-mix job. smid jobs carry no Progress hook of the benchmark's, so
// each job runs directly with the parameters smid would use.
func splitService(p *plan, chk *checker, tr *tracer, out *outcome) ([]rec, error) {
	var recs []rec
	for rep := 0; rep < splitReps; rep++ {
		for i, j := range p.jobs() {
			var err error
			if j.params, err = directParams(j.spec); err != nil {
				return nil, fmt.Errorf("%s: %w", j.key, err)
			}
			r := runDirect(j, tr, fmt.Sprintf("split%d-%02d %s", rep, i, j.key))
			r.err = chk.check(j.key, r.res, r.err)
			out.add("build/simulation split of "+describe(r), r.err)
			recs = append(recs, r)
		}
	}
	return recs, nil
}

func printMetrics(kind string, ms []metric) {
	for _, m := range ms {
		note := ""
		if m.note != "" {
			note = "  (" + strings.TrimSpace(m.note) + ")"
		}
		fmt.Printf("# %s %s = %.6g %s%s\n", kind, m.name, m.value, m.unit, note)
	}
}
