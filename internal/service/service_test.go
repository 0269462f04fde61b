package service

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/topology"
)

// waitTerminal blocks until the job reaches a terminal state.
func waitTerminal(t *testing.T, j *Job) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		_, changed, terminal := j.EventsSince(0)
		if terminal {
			return j.Status()
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", j.ID(), j.State())
		}
		select {
		case <-changed:
		case <-time.After(time.Second):
		}
	}
}

func mustDone(t *testing.T, j *Job) JobStatus {
	t.Helper()
	st := waitTerminal(t, j)
	if st.State != StateDone {
		t.Fatalf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	return st
}

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	svc := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
	})
	return svc
}

func TestSubmitRunsJob(t *testing.T) {
	svc := newTestService(t, Config{Workers: 2})
	job, err := svc.Submit(JobSpec{Workload: "bcast", Ranks: 4, Size: 256})
	if err != nil {
		t.Fatal(err)
	}
	st := mustDone(t, job)
	if st.Result == nil || st.Result.Cycles <= 0 {
		t.Fatalf("done job has no result: %+v", st)
	}
	if st.Result.OutputDigest == "" {
		t.Fatal("done job has no output digest")
	}
	if st.Started == nil || st.Finished == nil {
		t.Fatal("done job missing timestamps")
	}
}

// TestShardJobMatchesEvent admits a sharded job and checks it against
// the same spec under the default scheduler: identical cycles and
// output digest, with the shard layout visible in the returned stats.
func TestShardJobMatchesEvent(t *testing.T) {
	svc := newTestService(t, Config{Workers: 2})
	shard, err := svc.Submit(JobSpec{Workload: "bcast", Ranks: 8, Size: 256, Scheduler: "shard-adaptive", Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	event, err := svc.Submit(JobSpec{Workload: "bcast", Ranks: 8, Size: 256})
	if err != nil {
		t.Fatal(err)
	}
	stS, stE := mustDone(t, shard), mustDone(t, event)
	if stS.Result.Cycles != stE.Result.Cycles {
		t.Fatalf("shard job finished at cycle %d, event at %d", stS.Result.Cycles, stE.Result.Cycles)
	}
	if stS.Result.OutputDigest != stE.Result.OutputDigest {
		t.Fatalf("shard digest %s != event digest %s", stS.Result.OutputDigest, stE.Result.OutputDigest)
	}
	if got := stS.Result.Stats.Sched.Shards; got != 4 {
		t.Fatalf("shard job reports %d shards, want 4", got)
	}
	if stS.Result.Stats.Sched.Syncs <= 0 {
		t.Fatal("shard job reports no boundary synchronizations")
	}
}

// TestAdaptiveShardJobWithFaults admits a fault-injected job under the
// adaptive scheduler — the combination the service used to reject —
// and checks it against the event-scheduled run: same digest, same
// cycles, with the adaptive window and per-shard effort counters
// surfaced in the job's stats and aggregated into /v1/stats.
func TestAdaptiveShardJobWithFaults(t *testing.T) {
	svc := newTestService(t, Config{Workers: 2})
	faults := &fault.Spec{Seed: 7, DropProb: 0.002}
	adaptive, err := svc.Submit(JobSpec{
		Workload: "bcast", Ranks: 8, Size: 256,
		Scheduler: "shard-adaptive", Shards: 4, Faults: faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	event, err := svc.Submit(JobSpec{Workload: "bcast", Ranks: 8, Size: 256, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	stA, stE := mustDone(t, adaptive), mustDone(t, event)
	if stA.Result.Cycles != stE.Result.Cycles {
		t.Fatalf("adaptive job finished at cycle %d, event at %d", stA.Result.Cycles, stE.Result.Cycles)
	}
	if stA.Result.OutputDigest != stE.Result.OutputDigest {
		t.Fatalf("adaptive digest %s != event digest %s", stA.Result.OutputDigest, stE.Result.OutputDigest)
	}
	sc := stA.Result.Stats.Sched
	if sc.Shards != 4 || sc.Syncs <= 0 {
		t.Fatalf("adaptive job reports shards=%d syncs=%d, want 4 shards with syncs", sc.Shards, sc.Syncs)
	}
	if sc.Windows <= 0 {
		t.Fatal("adaptive job reports no lookahead windows")
	}
	if len(sc.PerShard) != 4 {
		t.Fatalf("adaptive job reports %d per-shard rows, want 4", len(sc.PerShard))
	}
	agg := svc.Stats().Sched
	if agg.ShardedJobs == 0 || agg.Syncs < sc.Syncs || agg.Windows < sc.Windows {
		t.Fatalf("service stats did not aggregate scheduler effort: %+v (job: %+v)", agg, sc)
	}
}

// TestStreamingJob admits a large-message bandwidth job on the
// streaming path and checks it against the credited packet path: the
// streaming knobs must survive the spec round trip, cut fragments, and
// finish at least 2x sooner in simulated cycles.
func TestStreamingJob(t *testing.T) {
	svc := newTestService(t, Config{Workers: 2})
	stream, err := svc.Submit(JobSpec{
		Workload: "bandwidth", Ranks: 4, Size: 4096,
		Mode: "streaming", BufferElems: 64, StreamBatch: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	credited, err := svc.Submit(JobSpec{
		Workload: "bandwidth", Ranks: 4, Size: 4096,
		Mode: "credited", BufferElems: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	stS, stC := mustDone(t, stream), mustDone(t, credited)
	if stS.Result.Stats.StreamFragments == 0 {
		t.Fatal("streaming job cut no fragments")
	}
	if stC.Result.Stats.StreamFragments != 0 {
		t.Fatalf("credited job cut %d fragments", stC.Result.Stats.StreamFragments)
	}
	if 2*stS.Result.Cycles > stC.Result.Cycles {
		t.Fatalf("streaming job took %d cycles, credited %d; want at least 2x win",
			stS.Result.Cycles, stC.Result.Cycles)
	}
}

// TestTransportJob admits an incast job under each transport and checks
// the selection survives the spec round trip: the receiver-driven run
// self-reports its transport, issues grants, and cuts the incast tail
// against the credited sender-driven baseline.
func TestTransportJob(t *testing.T) {
	svc := newTestService(t, Config{Workers: 2})
	rd, err := svc.Submit(JobSpec{
		Workload: "incast", Ranks: 4, Size: 2000, Transport: "receiver-driven",
	})
	if err != nil {
		t.Fatal(err)
	}
	sd, err := svc.Submit(JobSpec{Workload: "incast", Ranks: 4, Size: 2000})
	if err != nil {
		t.Fatal(err)
	}
	stR, stS := mustDone(t, rd), mustDone(t, sd)
	if got := stR.Result.Stats.Transport; got != "receiver-driven" {
		t.Fatalf("receiver-driven job reports transport %q", got)
	}
	if stR.Result.Stats.Grants == 0 {
		t.Fatal("receiver-driven job issued no grants")
	}
	if got := stS.Result.Stats.Transport; got != "sender-driven" {
		t.Fatalf("default job reports transport %q", got)
	}
	if stS.Result.Stats.Grants != 0 {
		t.Fatalf("sender-driven job reports %d grants", stS.Result.Stats.Grants)
	}
	if stR.Result.Metrics["tail_cycles"] >= stS.Result.Metrics["tail_cycles"] {
		t.Fatalf("receiver-driven tail %v not below sender-driven %v",
			stR.Result.Metrics["tail_cycles"], stS.Result.Metrics["tail_cycles"])
	}
}

func TestInvalidSpecsRejectedAtSubmit(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1})
	cases := []JobSpec{
		{Workload: "nope", Ranks: 4},
		{Workload: "bcast", Ranks: 1},
		{Workload: "bcast", Ranks: -3},
		{Workload: "bcast", Ranks: 4, RoutingPolicy: "bogus"},
		{Workload: "bcast", Ranks: 4, Scheduler: "bogus"},
		{Workload: "bcast", Ranks: 4, Size: -1},
		{Workload: "bcast", Ranks: 9, Topology: &topology.Spec{Kind: "torus", Rows: 2, Cols: 2}},
		{Workload: "bcast", Ranks: 4, Faults: &fault.Spec{DropProb: 2}},
		{Workload: "summa", Ranks: 4, Faults: &fault.Spec{DropProb: 0.5}},
		{Workload: "bcast", Ranks: 4, Scheduler: "shard-adaptive"},             // worker slots missing
		{Workload: "bcast", Ranks: 4, Scheduler: "shard-adaptive", Shards: -2}, // negative
		{Workload: "bcast", Ranks: 4, Scheduler: "shard-adaptive", Shards: 8},  // > ranks
		{Workload: "bcast", Ranks: 4, Shards: 2},                               // shards without shard scheduler
		{Workload: "bcast", Ranks: 4, Scheduler: "dense"},                      // test oracle, not a knob
		{Workload: "bcast", Ranks: 4, Scheduler: "shard", Shards: 2},           // removed fixed-window scheduler
		{Workload: "bandwidth", Ranks: 4, Mode: "teleport"},                    // unknown mode
		{Workload: "bcast", Ranks: 4, Mode: "streaming"},                       // mode-less workload
		{Workload: "bcast", Ranks: 4, BufferElems: 64},                         // knob on mode-less workload
		{Workload: "bandwidth", Ranks: 4, Mode: "circuit", StreamBatch: 8},     // batch without streaming
		{Workload: "bandwidth", Ranks: 4, Mode: "streaming", BufferElems: -1},  // negative buffer
		{Workload: "bandwidth", Ranks: 4, Mode: "streaming", StreamBatch: 1e7}, // oversized batch
		{Workload: "incast", Ranks: 4, Transport: "homa"},                      // unknown transport
		{Workload: "incast", Ranks: 4, Arbiter: "lru"},                         // unknown arbiter
		{Workload: "summa", Ranks: 4, Transport: "receiver-driven"},            // transport-less workload
		{Workload: "incast", Ranks: 4, Transport: "receiver-driven", // pacing ops have no wire form
			Faults: &fault.Spec{DropProb: 0.01, Seed: 1}},
		{Workload: "bandwidth", Ranks: 4, Transport: "receiver-driven", Mode: "streaming"}, // bypasses pacing
	}
	for i, spec := range cases {
		if _, err := svc.Submit(spec); !IsKind(err, InvalidSpec) {
			t.Errorf("case %d (%+v): err = %v, want InvalidSpec", i, spec, err)
		}
	}
	// Retired scheduler names are refused with the accepted values.
	for _, name := range []string{"dense", "shard"} {
		_, err := svc.Submit(JobSpec{Workload: "bcast", Ranks: 4, Scheduler: name})
		if err == nil || !strings.Contains(err.Error(), "have event, shard-adaptive") {
			t.Errorf("scheduler %q: err = %v, want the accepted values listed", name, err)
		}
	}
	if got := svc.Stats().Jobs; len(got) != 0 {
		t.Fatalf("rejected submissions leaked jobs: %v", got)
	}
}

func TestConcurrentIdenticalJobsShareRoutes(t *testing.T) {
	svc := newTestService(t, Config{Workers: 2})
	spec := JobSpec{Workload: "stencil", Ranks: 16}
	a, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	stA, stB := mustDone(t, a), mustDone(t, b)
	cs := svc.Stats().RouteCache
	if cs.Misses != 1 || cs.Hits != 1 {
		t.Fatalf("route cache: %d misses, %d hits; want exactly 1 and 1", cs.Misses, cs.Hits)
	}
	if !stA.CacheHit && !stB.CacheHit {
		t.Fatal("neither job observed the cache hit")
	}
	if stA.Result.OutputDigest != stB.Result.OutputDigest {
		t.Fatalf("identical jobs diverged: %s vs %s", stA.Result.OutputDigest, stB.Result.OutputDigest)
	}
	if !reflect.DeepEqual(stA.Result.Stats, stB.Result.Stats) {
		t.Fatal("identical jobs produced different stats")
	}
}

// TestReplayDeterminism is the headline replay guarantee: a faulty run
// replayed from its stored spec reproduces cycles, stats, and output
// digest bit for bit, and the service's own verification agrees.
func TestReplayDeterminism(t *testing.T) {
	svc := newTestService(t, Config{Workers: 2})
	spec := JobSpec{
		Workload: "bcast", Ranks: 8, Size: 512,
		Faults: &fault.Spec{
			Seed:     42,
			DropProb: 0.01,
			Events:   []fault.Event{{Kind: fault.Drop, At: 100}},
		},
	}
	orig, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	origSt := mustDone(t, orig)
	if origSt.Result.Stats.FaultsInjected.Dropped == 0 && origSt.Result.Stats.Retransmits == 0 {
		t.Fatalf("fault spec had no observable effect: %+v", origSt.Result.Stats)
	}

	replay, err := svc.Replay(orig.ID())
	if err != nil {
		t.Fatal(err)
	}
	repSt := mustDone(t, replay)
	if repSt.ReplayOf != orig.ID() {
		t.Fatalf("replay_of = %q, want %q", repSt.ReplayOf, orig.ID())
	}
	if !reflect.DeepEqual(*origSt.Result, *repSt.Result) {
		t.Fatalf("replay diverged:\n orig: %+v\n replay: %+v", *origSt.Result, *repSt.Result)
	}
	if repSt.ReplayMatch == nil || !*repSt.ReplayMatch {
		t.Fatalf("service did not verify the replay as bit-identical: %+v", repSt.ReplayMatch)
	}
	events, _, _ := replay.EventsSince(0)
	verified := false
	for _, ev := range events {
		if ev.Kind == "replay-verified" {
			verified = true
		}
	}
	if !verified {
		t.Fatalf("no replay-verified event in %v", events)
	}
}

func TestReplayErrors(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1})
	if _, err := svc.Replay("j9999"); !IsKind(err, NotFound) {
		t.Fatalf("replay of unknown job: %v, want NotFound", err)
	}
}

// TestOverloadAndShutdown drives admission control and the drain path:
// with one worker pinned on a long job and the depth-1 queue holding a
// second, a third submission must be rejected with Overloaded; shutdown
// then cancels the queued job, drains the running one, and rejects new
// work with ShuttingDown.
func TestOverloadAndShutdown(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 1})
	long := JobSpec{Workload: "pingpong", Ranks: 4, Size: 20000}
	running, err := svc.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	// Give the single worker a moment to take the first job off the
	// queue so the next submission occupies the only queue slot.
	waitRunning(t, running)
	queued, err := svc.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(long); !IsKind(err, Overloaded) {
		t.Fatalf("third submission: %v, want Overloaded", err)
	}
	if st := svc.Stats(); st.QueueDepth != 1 || st.QueueCapacity != 1 {
		t.Fatalf("queue stats = %d/%d, want 1/1", st.QueueDepth, st.QueueCapacity)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if st := waitTerminal(t, running); st.State != StateDone {
		t.Fatalf("running job after drain: %s (%s), want done", st.State, st.Error)
	}
	if st := queued.Status(); st.State != StateCanceled || st.ErrorKind != ShuttingDown.String() {
		t.Fatalf("queued job after drain: %+v, want canceled/shutting-down", st)
	}
	if _, err := svc.Submit(long); !IsKind(err, ShuttingDown) {
		t.Fatalf("submit after shutdown: %v, want ShuttingDown", err)
	}
	if _, err := svc.Replay(queued.ID()); !IsKind(err, Conflict) {
		t.Fatalf("replay of canceled job: %v, want Conflict", err)
	}
	// Idempotent.
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

func waitRunning(t *testing.T, j *Job) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for j.State() == StateQueued {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started", j.ID())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestJobFailureIsIsolated(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1})
	// A fault schedule that kills a bus link partitions the topology;
	// the run fails, the service does not.
	bad, err := svc.Submit(JobSpec{
		Workload: "bandwidth", Ranks: 2, Size: 4096,
		Topology: &topology.Spec{Kind: "bus", Devices: 2},
		Faults:   &fault.Spec{Events: []fault.Event{{Kind: fault.Kill, At: 10}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, bad); st.State != StateFailed {
		t.Fatalf("partitioned run ended %s, want failed", st.State)
	}
	good, err := svc.Submit(JobSpec{Workload: "bcast", Ranks: 4, Size: 256})
	if err != nil {
		t.Fatal(err)
	}
	mustDone(t, good)
}
