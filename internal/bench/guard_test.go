package bench

import (
	"encoding/json"
	"os"
	"strconv"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// TestFaultsBenchHonorsShards is the regression test for the smibench
// -shards fallback: reliable workloads used to accept a shard count and
// silently run on one engine. The experiment now threads the count into
// the fault scenarios and fails hard when the simulator reports fewer
// shards than requested, so a reappearing fallback breaks this test
// instead of quietly producing serial measurements.
func TestFaultsBenchHonorsShards(t *testing.T) {
	e, err := ByID("ablate-faults")
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run(Options{Quick: true, Shards: 4})
	if err != nil {
		t.Fatalf("ablate-faults with -shards 4: %v", err)
	}
	if len(r.Rows) == 0 {
		t.Fatal("sharded ablate-faults produced no rows")
	}
}

// TestScalingRowsRecordHost checks the provenance fields of the
// BENCH_scaling.json document: every row must say what parallel
// hardware produced it, and the shard-adaptive rows must cover the
// GOMAXPROCS axis.
func TestScalingRowsRecordHost(t *testing.T) {
	r := runQuick(t, "scaling")
	var doc scalingJSON
	if err := json.Unmarshal(r.JSON, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.HostCPUs < 1 {
		t.Fatalf("document host_cpus = %d", doc.HostCPUs)
	}
	gmps := map[string]map[int]bool{}
	for _, row := range doc.Rows {
		if row.HostCPUs < 1 || row.GoMaxProcs < 1 {
			t.Fatalf("row %s/%s missing host provenance: host_cpus=%d gomaxprocs=%d",
				row.Workload, row.Scheduler, row.HostCPUs, row.GoMaxProcs)
		}
		if gmps[row.Scheduler] == nil {
			gmps[row.Scheduler] = map[int]bool{}
		}
		gmps[row.Scheduler][row.GoMaxProcs] = true
		if row.Scheduler == sim.SchedShardAdaptive.String() && row.Windows == 0 {
			t.Errorf("adaptive row %s/%d opened no lookahead windows", row.Workload, row.Ranks)
		}
	}
	kind := sim.SchedShardAdaptive.String()
	for _, gmp := range scalingGoMaxProcs {
		if !gmps[kind][gmp] {
			t.Errorf("no %s row measured at GOMAXPROCS=%d (have %v)", kind, gmp, gmps[kind])
		}
	}
}

// TestTransportIncastGuard is the transport ablation's CI gate: with
// SMI_BENCH_GUARD=1 it re-measures the 8:1 incast under both transports
// and fails if the receiver-driven tail win disappears or the measured
// tails drift from the committed BENCH_transport.json (the runs are
// simulated cycles, so they must reproduce exactly, not within a
// tolerance).
func TestTransportIncastGuard(t *testing.T) {
	if os.Getenv("SMI_BENCH_GUARD") != "1" {
		t.Skip("set SMI_BENCH_GUARD=1 to run the benchmark regression guard")
	}
	raw, err := os.ReadFile("../../BENCH_transport.json")
	if err != nil {
		t.Fatalf("no committed baseline: %v", err)
	}
	var doc transportJSON
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("committed BENCH_transport.json: %v", err)
	}
	for n, sp := range doc.TailSpeedup {
		senders, err := strconv.Atoi(n)
		if err != nil {
			t.Fatalf("committed tail speedup key %q not a sender count", n)
		}
		if senders >= 8 && sp <= 1 {
			t.Errorf("committed tail speedup at %s:1 = %f, want > 1", n, sp)
		}
	}
	// Cycle counts are deterministic: re-running the committed 8:1 rows
	// with their recorded parameters must reproduce them exactly, and
	// the tail win must still be there.
	tails := map[string]int64{}
	checked := 0
	for _, base := range doc.Rows {
		if base.Workload != "incast" || base.Senders != 8 {
			continue
		}
		topo, err := topology.Bus(9)
		if err != nil {
			t.Fatal(err)
		}
		res, err := workload.Run("incast", workload.Params{
			Ranks: 9, Size: base.Elems, Topology: topo, Transport: base.Transport,
		})
		if err != nil {
			t.Fatalf("8:1 incast under %s: %v", base.Transport, err)
		}
		tail := int64(res.Metrics["tail_cycles"])
		if res.Cycles != base.Cycles || tail != base.TailCycles {
			t.Errorf("%s 8:1 incast drifted: committed (cycles %d, tail %d), measured (%d, %d)",
				base.Transport, base.Cycles, base.TailCycles, res.Cycles, tail)
		}
		tails[base.Transport] = tail
		checked++
	}
	if checked != 2 {
		t.Fatalf("committed BENCH_transport.json has %d 8:1 incast rows, want both transports", checked)
	}
	if tails["receiver-driven"] >= tails["sender-driven"] {
		t.Errorf("re-measured receiver-driven tail %d not below sender-driven %d",
			tails["receiver-driven"], tails["sender-driven"])
	}
}

// TestScalingRegressionGuard is the CI benchmark gate: with
// SMI_BENCH_GUARD=1 it re-measures the 64-rank points and fails if
// ns_per_simulated_cycle regressed more than 20% against the committed
// BENCH_scaling.json. Each point gets two attempts and keeps the
// faster, so a single scheduling hiccup on a shared runner does not
// fail the build.
func TestScalingRegressionGuard(t *testing.T) {
	if os.Getenv("SMI_BENCH_GUARD") != "1" {
		t.Skip("set SMI_BENCH_GUARD=1 to run the benchmark regression guard")
	}
	raw, err := os.ReadFile("../../BENCH_scaling.json")
	if err != nil {
		t.Fatalf("no committed baseline: %v", err)
	}
	var doc scalingJSON
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("committed BENCH_scaling.json: %v", err)
	}
	kinds := map[string]sim.SchedulerKind{
		sim.SchedEvent.String():         sim.SchedEvent,
		sim.SchedShardAdaptive.String(): sim.SchedShardAdaptive,
	}
	checked := 0
	for _, base := range doc.Rows {
		kind, ok := kinds[base.Scheduler]
		if !ok || base.Ranks != 64 || base.NsPerCycle <= 0 {
			continue
		}
		best := 0.0
		for attempt := 0; attempt < 2; attempt++ {
			row, err := scalingRun(base.Workload, 64, kind, base.Shards, base.GoMaxProcs)
			if err != nil {
				t.Fatalf("%s/%s: %v", base.Workload, base.Scheduler, err)
			}
			if best == 0 || row.NsPerCycle < best {
				best = row.NsPerCycle
			}
		}
		checked++
		if best > 1.2*base.NsPerCycle {
			t.Errorf("%s/%s@64 ranks (gomaxprocs %d): %.1f ns/cycle, committed baseline %.1f — regressed more than 20%%",
				base.Workload, base.Scheduler, base.GoMaxProcs, best, base.NsPerCycle)
		} else {
			t.Logf("%s/%s@64 ranks: %.1f ns/cycle vs baseline %.1f", base.Workload, base.Scheduler, best, base.NsPerCycle)
		}
	}
	if checked == 0 {
		t.Fatal("committed BENCH_scaling.json has no 64-rank rows to guard")
	}
}
