package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/service"
	"repro/internal/workload"
)

// A rec is one executed job as its client saw it.
type rec struct {
	job
	replay     bool
	start, end time.Time // request interval seen by the client
	cpuEnd     int64     // process CPU time when the client saw the job end
	rssMB      float64   // resident set of the process when the client saw the job end
	hostNs     int64     // simulator host time: the worker's run time for service jobs
	submitNs   int64     // service jobs: the Submit or Replay call
	queueNs    int64     // service jobs: submitted to started
	buildNs    int64     // traced direct jobs: start to the first Progress callback, else -1
	simNs      int64     // traced direct jobs: first Progress callback to the end, else -1
	res        *workload.Result
	err        error
}

func (r rec) ms() float64 { return float64(r.end.Sub(r.start).Nanoseconds()) / 1e6 }

// A pass is one execution of a plan's job list.
type pass struct {
	recs       []rec
	start      time.Time
	wall       time.Duration
	cpu0       int64 // process CPU time at the start
	cpuNs      int64 // process CPU time, user and system
	allocBytes uint64
	cache      service.CacheStats // service-mix only
}

// runPass executes every job of the plan, checking each output; tr is nil
// for an untraced pass.
func runPass(p *plan, chk *checker, tr *tracer) (pass, error) {
	var ps pass
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	c0, err := cpuNow()
	if err != nil {
		return ps, err
	}
	if _, err := rssNow(); err != nil {
		return ps, err
	}
	t0 := time.Now()
	ps.start, ps.cpu0 = t0, c0
	if p.clients == nil {
		for i, j := range p.direct {
			r := runDirect(j, tr, fmt.Sprintf("job%05d %s", i, j.key))
			if r.cpuEnd, err = cpuNow(); err != nil {
				return ps, err
			}
			if r.rssMB, err = rssNow(); err != nil {
				return ps, err
			}
			r.err = chk.check(j.key, r.res, r.err)
			ps.recs = append(ps.recs, r)
		}
	} else {
		if ps.recs, ps.cache, err = runClients(p, chk, tr); err != nil {
			return ps, err
		}
	}
	ps.wall = time.Since(t0)
	c1, err := cpuNow()
	if err != nil {
		return ps, err
	}
	ps.cpuNs = c1 - c0
	runtime.ReadMemStats(&m1)
	ps.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	return ps, nil
}

// cpuNow returns the CPU time the process has used so far. Unlike wall
// time it leaves out time the host gave to other tenants (steal).
func cpuNow() (int64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return ru.Utime.Nano() + ru.Stime.Nano(), nil
}

// rssNow returns the resident set size of the process in MB.
func rssNow() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(b), &size, &resident); err != nil {
		return 0, fmt.Errorf("parsing /proc/self/statm: %w", err)
	}
	return float64(resident*int64(os.Getpagesize())) / 1e6, nil
}

// runDirect runs one job through workload.Run. When traced, a Progress
// observer marks the first executed cycle, which splits the job into
// cluster build and simulation.
func runDirect(j job, tr *tracer, id string) rec {
	r := rec{job: j, buildNs: -1, simNs: -1}
	params := j.params
	var once sync.Once
	var split time.Time
	if tr != nil {
		params.Progress = func(int64) { once.Do(func() { split = time.Now() }) }
		params.ProgressEvery = 1
	}
	r.start = time.Now()
	res, err := workload.Run(j.name, params)
	r.end = time.Now()
	r.hostNs = r.end.Sub(r.start).Nanoseconds()
	r.res, r.err = &res, err
	if tr != nil {
		root := tr.add("job", r.start, r.end, 0, id)
		run := tr.add("workload.Run", r.start, r.end, root, id)
		if !split.IsZero() {
			tr.add("core.build", r.start, split, run, id)
			tr.add("core.sim", split, r.end, run, id)
			r.buildNs, r.simNs = split.Sub(r.start).Nanoseconds(), r.end.Sub(split).Nanoseconds()
		}
	}
	return r
}

// runClients serves the plan's closed-loop clients from one in-process
// smid and returns their jobs in client order.
func runClients(p *plan, chk *checker, tr *tracer) ([]rec, service.CacheStats, error) {
	svc := service.New(p.svcCfg)
	per := make([][]rec, len(p.clients))
	var wg sync.WaitGroup
	for c := range p.clients {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			per[c] = runClient(svc, c, p.clients[c], chk, tr)
		}()
	}
	wg.Wait()
	cache := svc.Stats().RouteCache
	if err := svc.Shutdown(context.Background()); err != nil {
		return nil, cache, fmt.Errorf("smid shutdown: %w", err)
	}
	var out []rec
	for _, rs := range per {
		out = append(out, rs...)
	}
	return out, cache, nil
}

// runClient issues one client's steps, each after the previous finished.
func runClient(svc *service.Service, c int, steps []step, chk *checker, tr *tracer) []rec {
	ids := make([]string, len(steps))
	out := make([]rec, 0, len(steps))
	for i, s := range steps {
		r := rec{job: s.job, replay: s.replayOf >= 0, buildNs: -1, simNs: -1}
		id := fmt.Sprintf("c%d-%05d %s", c, i, s.key)
		r.start = time.Now()
		var jb *service.Job
		var err error
		if r.replay {
			jb, err = svc.Replay(ids[s.replayOf])
		} else {
			jb, err = svc.Submit(s.spec)
		}
		submitted := time.Now()
		r.submitNs = submitted.Sub(r.start).Nanoseconds()
		if err != nil {
			r.end, r.err = submitted, fmt.Errorf("rejected: %w", err)
			// runPass checked that both readings work.
			r.cpuEnd, _ = cpuNow()
			r.rssMB, _ = rssNow()
			out = append(out, r)
			continue
		}
		ids[i] = jb.ID()
		st := await(jb, r.replay)
		r.end = time.Now()
		r.cpuEnd, _ = cpuNow()
		r.rssMB, _ = rssNow()
		r.res = st.Result
		if st.Started != nil && st.Finished != nil {
			r.queueNs = st.Started.Sub(st.Submitted).Nanoseconds()
			r.hostNs = st.Finished.Sub(*st.Started).Nanoseconds()
		}
		switch {
		case st.State != service.StateDone:
			r.err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
		case r.replay && (st.ReplayMatch == nil || !*st.ReplayMatch):
			r.err = fmt.Errorf("replay %s of %s: replay_match=false", st.ID, st.ReplayOf)
		default:
			r.err = chk.check(s.key, st.Result, nil)
		}
		if tr != nil {
			root := tr.add("job", r.start, r.end, 0, id)
			tr.add("service.submit", r.start, submitted, root, id)
			if st.Started != nil && st.Finished != nil {
				tr.add("service.queue_wait", st.Submitted, *st.Started, root, id)
				tr.add("service.run", *st.Started, *st.Finished, root, id)
				tr.add("service.notify", *st.Finished, r.end, root, id)
			}
		}
		out = append(out, r)
	}
	return out
}

// await blocks until the job is terminal and, for a replay, until the
// service has recorded its replay verdict.
func await(j *service.Job, replay bool) service.JobStatus {
	seq := 0
	for {
		evs, changed, done := j.EventsSince(seq)
		seq += len(evs)
		if done {
			st := j.Status()
			if !replay || st.State != service.StateDone || st.ReplayMatch != nil {
				return st
			}
		}
		<-changed
	}
}

// runOnce runs one job by itself: directly, or through a fresh smid for a
// service-mix job.
func runOnce(p *plan, j job) (*workload.Result, error) {
	if p.clients == nil {
		res, err := workload.Run(j.name, j.params)
		return &res, err
	}
	svc := service.New(p.svcCfg)
	defer svc.Shutdown(context.Background()) // drains an idle service; nothing to report
	jb, err := svc.Submit(j.spec)
	if err != nil {
		return nil, err
	}
	st := await(jb, false)
	if st.State != service.StateDone {
		return nil, fmt.Errorf("job ended %s: %s", st.State, st.Error)
	}
	return st.Result, nil
}

// directParams turns a service job spec into the workload parameters smid
// would run it with on a route-cache hit, so a service-mix job can be
// timed around workload.Run with its build/simulation split.
func directParams(s service.JobSpec) (workload.Params, error) {
	p := workload.Params{
		Ranks: s.Ranks, Size: s.Size, Steps: s.Steps, Verify: s.Verify,
		Mode: s.Mode, BufferElems: s.BufferElems, StreamBatch: s.StreamBatch,
		Transport: s.Transport, Arbiter: s.Arbiter, MaxCycles: s.MaxCycles,
	}
	if s.RoutingPolicy == "updown" {
		p.RoutingPolicy = routing.UpDown
	}
	topo, err := s.Topology.Build()
	if err != nil {
		return p, err
	}
	p.Topology = topo
	w, err := workload.Get(s.Workload)
	if err != nil {
		return p, err
	}
	if w.SupportsRoutes {
		if p.Routes, err = routing.Compute(topo, p.RoutingPolicy); err != nil {
			return p, err
		}
	}
	if s.Faults != nil {
		f := *s.Faults
		if s.Seed != 0 {
			f.Seed = s.Seed
		}
		f.Events = append([]fault.Event(nil), s.Faults.Events...)
		p.Faults = &f
	}
	return p, nil
}
