package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/apps"
	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// A job is one simulation. Direct jobs run through workload.Run; service
// jobs are submitted to an in-process smid.
type job struct {
	key    string // reference.json entry the output is checked against
	name   string // workload registry name
	params workload.Params
	spec   service.JobSpec
}

// A step is one closed-loop request of a service client: a submission,
// or a replay of the submission at index replayOf of the same client.
type step struct {
	job
	replayOf int // -1 for a submission
}

// A plan is one run's inputs, made by a workload's setup from the seed.
type plan struct {
	topoNs  int64 // topology builds in this setup
	routeNs int64 // route computations in this setup
	direct  []job
	clients [][]step
	svcCfg  service.Config
}

// jobs returns every distinct job of the plan, one per reference key.
func (p *plan) jobs() []job {
	seen := map[string]bool{}
	var out []job
	add := func(j job) {
		if !seen[j.key] {
			seen[j.key] = true
			out = append(out, j)
		}
	}
	for _, j := range p.direct {
		add(j)
	}
	for _, c := range p.clients {
		for _, s := range c {
			add(s.job)
		}
	}
	return out
}

// A workloadDef names one benchmark workload. jobMs is the nominal wall
// time one job adds to a run on a 2-vCPU host at GOMAXPROCS 1, and a run of s seconds
// executes blocks*block jobs, where blocks = ceil(s*1000 / (jobMs*block)):
// the job list depends only on the seed and s, never on the host's speed. Within a
// block the seed only reorders and reassigns jobs, so every run of the
// same length executes the same multiset of jobs and its exact counters
// agree across seeds.
type workloadDef struct {
	name  string
	why   string
	jobMs float64
	block int
	// window is the number of jobs per measurement window (see endToEnd):
	// whole rounds of the job mix, lasting 2 to 8 seconds.
	window int
	setup  func(seed int64, blocks int) (*plan, error)
}

func (w workloadDef) blocks(seconds int) int {
	return int(math.Ceil(float64(seconds) * 1000 / (w.jobMs * float64(w.block))))
}

var workloads = []workloadDef{
	{
		name: "bcast64-event",
		why: "64-rank broadcast on one event-scheduled engine, pristine links, one client: isolates the scheduler, FIFO and " +
			"CK hot loop (build is <1%); bypasses links' repair paths, sharding and the service",
		jobMs:  1100,
		block:  1,
		window: 2,
		setup:  setupBcast,
	},
	{
		name: "stencil64-adaptive-faults",
		why: "64-rank stencil, shard-adaptive on 2 worker slots, reliable links with drops and a link kill: windows, " +
			"steals, go-back-N, fault injection, failover; service-mix has no windows, steals or failover",
		jobMs:  450,
		block:  len(stencilFaultSeeds),
		window: len(stencilFaultSeeds),
		setup:  setupStencil,
	},
	{
		name: "service-mix",
		why: "in-process smid, 2 workers, 2 closed-loop clients of short mixed jobs with replays: admission, route cache, " +
			"cluster build and transfer modes dominate, so an event-core gain should leave it flat",
		jobMs:  22,
		block:  mixClients * len(mixCatalog) * (len(mixCatalog) + 1),
		window: 16 * mixClients * (len(mixCatalog) + 1), // 16 rounds of both clients
		setup:  setupMix,
	},
}

func lookup(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// buildRoutes builds a topology and its routing tables, timing both.
func (p *plan) buildRoutes(build func() (*topology.Topology, error), pol routing.Policy) (*topology.Topology, *routing.Routes, error) {
	t0 := time.Now()
	topo, err := build()
	t1 := time.Now()
	if err != nil {
		return nil, nil, err
	}
	routes, err := routing.Compute(topo, pol)
	t2 := time.Now()
	if err != nil {
		return nil, nil, err
	}
	p.topoNs += t1.Sub(t0).Nanoseconds()
	p.routeNs += t2.Sub(t1).Nanoseconds()
	return topo, routes, nil
}

// bcast64-event: workload.Run("bcast") on an 8x8 torus with up*/down*
// routing, 4096 floats, event scheduler, pristine sender-driven links.
// Every job is identical; the seed changes nothing.
func setupBcast(seed int64, blocks int) (*plan, error) {
	p := &plan{}
	topo, routes, err := p.buildRoutes(func() (*topology.Topology, error) { return topology.Torus2D(8, 8) }, routing.UpDown)
	if err != nil {
		return nil, err
	}
	j := job{key: "bcast64-event", name: "bcast", params: workload.Params{
		Ranks: 64, Size: 4096, Topology: topo, RoutingPolicy: routing.UpDown, Routes: routes,
		Scheduler: sim.SchedEvent,
	}}
	for i := 0; i < blocks; i++ {
		p.direct = append(p.direct, j)
	}
	return p, nil
}

// stencilFaultSeeds are the fault-injection seeds the stencil jobs draw
// from; each block runs every seed once, in a seeded order.
var stencilFaultSeeds = []int64{1, 2, 3, 4}

const stencilKillLink = "9:1->10:3"

func stencilJob(topo *topology.Topology, routes *routing.Routes, faultSeed int64) job {
	return job{key: fmt.Sprintf("stencil64-adaptive-faults/fault-seed-%d", faultSeed), name: "stencil", params: workload.Params{
		Ranks: 64, Size: 256, Steps: 16, Verify: true,
		Topology: topo, Routes: routes,
		Faults: &fault.Spec{Seed: faultSeed, DropProb: 0.001, Events: []fault.Event{
			{Link: stencilKillLink, Kind: fault.Kill, At: 3000},
		}},
		Scheduler: sim.SchedShardAdaptive, Shards: 2,
	}}
}

// stencil64-adaptive-faults: workload.Run("stencil") with 64 ranks, a
// 256x256 grid and 16 steps under shard-adaptive with 2 worker slots, on
// reliable links that drop packets with probability 0.001 and lose one
// cable for good at cycle 3000.
func setupStencil(seed int64, blocks int) (*plan, error) {
	p := &plan{}
	topo, routes, err := p.buildRoutes(func() (*topology.Topology, error) { return topology.Torus2D(8, 8) }, routing.ShortestPath)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	for b := 0; b < blocks; b++ {
		for _, i := range rng.Perm(len(stencilFaultSeeds)) {
			p.direct = append(p.direct, stencilJob(topo, routes, stencilFaultSeeds[i]))
		}
	}
	return p, nil
}

// checkStencilGrid runs the stencil job once with the real grid exposed
// and compares it, under faults and failover, to the sequential reference.
func checkStencilGrid(j job) error {
	sp := j.params
	rows, cols := workload.Grid(sp.Ranks)
	res, err := apps.Stencil(apps.StencilConfig{
		N: sp.Size, Timesteps: sp.Steps, RanksX: rows, RanksY: cols, Verify: true,
		Topology: sp.Topology, Routes: sp.Routes, Faults: sp.Faults,
		Scheduler: sp.Scheduler, Shards: sp.Shards,
	})
	if err != nil {
		return err
	}
	if res.Net.Failovers < 1 {
		return fmt.Errorf("stencil grid check: no failover happened (%+v)", res.Net)
	}
	want := apps.StencilReference(sp.Size, sp.Steps)
	for i := range want {
		for k := range want[i] {
			if res.Grid[i][k] != want[i][k] {
				return fmt.Errorf("stencil grid check: grid[%d][%d] = %g, want %g", i, k, res.Grid[i][k], want[i][k])
			}
		}
	}
	return nil
}

// mixFaultSeeds are the seeds of the faulty bandwidth job: in every round
// the two clients run one each, in a seeded assignment.
var mixFaultSeeds = []int64{5, 6}

// mixEntry is one kind of service-mix job; a faulty entry runs with a seed
// from mixFaultSeeds.
type mixEntry struct {
	name   string
	faulty bool
	spec   service.JobSpec
}

func torus(r, c int) *topology.Spec { return &topology.Spec{Kind: "torus", Rows: r, Cols: c} }
func bus(n int) *topology.Spec      { return &topology.Spec{Kind: "bus", Devices: n} }

var mixCatalog = []mixEntry{
	{name: "bandwidth-bus8-packet", spec: service.JobSpec{Workload: "bandwidth", Ranks: 8, Size: 4096, Topology: bus(8), Mode: "packet"}},
	{name: "bandwidth-bus8-credited", spec: service.JobSpec{Workload: "bandwidth", Ranks: 8, Size: 4096, Topology: bus(8), Mode: "credited", BufferElems: 64}},
	{name: "bandwidth-bus8-circuit", spec: service.JobSpec{Workload: "bandwidth", Ranks: 8, Size: 4096, Topology: bus(8), Mode: "circuit", BufferElems: 64}},
	{name: "bandwidth-bus8-streaming", spec: service.JobSpec{Workload: "bandwidth", Ranks: 8, Size: 4096, Topology: bus(8), Mode: "streaming", BufferElems: 64}},
	{name: "bandwidth-bus8-faults", faulty: true, spec: service.JobSpec{Workload: "bandwidth", Ranks: 8, Size: 4096, Topology: bus(8),
		Faults: &fault.Spec{DropProb: 0.01}}},
	{name: "incast-9-sender-driven", spec: service.JobSpec{Workload: "incast", Ranks: 9, Size: 1024, Topology: torus(3, 3)}},
	{name: "incast-9-receiver-driven", spec: service.JobSpec{Workload: "incast", Ranks: 9, Size: 1024, Topology: torus(3, 3), Transport: "receiver-driven"}},
	{name: "reduce-16", spec: service.JobSpec{Workload: "reduce", Ranks: 16, Size: 1024, Topology: torus(4, 4)}},
	{name: "pingpong-256", spec: service.JobSpec{Workload: "pingpong", Ranks: 256, Size: 16, Topology: torus(16, 16), RoutingPolicy: "updown"}},
	{name: "summa-8", spec: service.JobSpec{Workload: "summa", Ranks: 8, Size: 64, Topology: bus(8), Verify: true}},
	{name: "stencil-16", spec: service.JobSpec{Workload: "stencil", Ranks: 16, Size: 64, Steps: 4, Topology: torus(4, 4), Verify: true}},
}

func mixJob(e mixEntry, faultSeed int64) job {
	j := job{key: "service-mix/" + e.name, name: e.spec.Workload, spec: e.spec}
	if e.faulty {
		j.key = fmt.Sprintf("%s/fault-seed-%d", j.key, faultSeed)
		j.spec.Seed = faultSeed
	}
	return j
}

// The service runs one worker per closed-loop client.
const mixClients, mixWorkers = 2, 2

// service-mix: an in-process smid and closed-loop clients.
// A client's round submits every catalog entry once in its own seeded
// order, then replays one of them through Service.Replay. A block is one
// replay per entry (len(mixCatalog) rounds); both clients replay the same
// entry in a round, and run different seeds of the faulty entry, so a
// block's multiset of jobs does not depend on the seed. Setup also starts
// and drains one smid, and times topology builds and route computations
// for every topology of the catalog.
func setupMix(seed int64, blocks int) (*plan, error) {
	p := &plan{svcCfg: service.Config{Workers: mixWorkers}}
	svc := service.New(p.svcCfg)
	if err := svc.Shutdown(context.Background()); err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	for _, e := range mixCatalog {
		sp := *e.spec.Topology
		pol := routing.ShortestPath
		if e.spec.RoutingPolicy == "updown" {
			pol = routing.UpDown
		}
		k := fmt.Sprintf("%+v/%v", sp, pol)
		if seen[k] {
			continue
		}
		seen[k] = true
		if _, _, err := p.buildRoutes(sp.Build, pol); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	p.clients = make([][]step, mixClients)
	for b := 0; b < blocks; b++ {
		replays := rng.Perm(len(mixCatalog))
		for r := 0; r < len(mixCatalog); r++ {
			shift := rng.Intn(len(mixFaultSeeds))
			for c := range p.clients {
				order := rng.Perm(len(mixCatalog))
				base := len(p.clients[c])
				replayAt := -1
				for i, ei := range order {
					e := mixCatalog[ei]
					p.clients[c] = append(p.clients[c], step{job: mixJob(e, mixFaultSeeds[(c+shift)%len(mixFaultSeeds)]), replayOf: -1})
					if ei == replays[r] {
						replayAt = base + i
					}
				}
				p.clients[c] = append(p.clients[c], step{job: p.clients[c][replayAt].job, replayOf: replayAt})
			}
		}
	}
	return p, nil
}
