package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strings"
	"sync"

	smi "repro/internal/core"
	"repro/internal/workload"
)

// reference.json holds, for every job any seed can produce, the cycle
// count, output digest and exact counters the program gave when the
// benchmark was defined. Rewrite it with -record only when a change is
// meant to alter simulated behaviour.
//
//go:embed reference.json
var referenceJSON []byte

type refEntry struct {
	Cycles   int64            `json:"cycles"`
	Digest   string           `json:"digest"`
	Counters map[string]int64 `json:"counters"`
}

// counterNames lists the exact counters of workload.Result.Stats that the
// benchmark compares between runs, in output order.
var counterNames = []string{
	"packets_delivered", "packets_dropped", "link_stalls", "retransmits", "crc_errors",
	"faults_dropped", "faults_corrupted", "faults_flap_lost", "failovers", "failover_cycles", "rescued_packets",
	"stream_fragments", "grants",
	"cycles_executed", "cycles_skipped", "proc_steps", "kernel_ticks", "fifo_commits",
	"shards", "syncs", "windows", "steals",
}

func counters(s smi.Stats) map[string]int64 {
	sc := s.Sched
	return map[string]int64{
		"packets_delivered": int64(s.PacketsDelivered),
		"packets_dropped":   int64(s.PacketsDropped),
		"link_stalls":       int64(s.LinkStalls),
		"retransmits":       int64(s.Retransmits),
		"crc_errors":        int64(s.CrcErrors),
		"faults_dropped":    int64(s.FaultsInjected.Dropped),
		"faults_corrupted":  int64(s.FaultsInjected.Corrupted),
		"faults_flap_lost":  int64(s.FaultsInjected.FlapLost),
		"failovers":         int64(s.Failovers),
		"failover_cycles":   s.FailoverCycles,
		"rescued_packets":   int64(s.RescuedPackets),
		"stream_fragments":  int64(s.StreamFragments),
		"grants":            int64(s.Grants),
		"cycles_executed":   sc.CyclesExecuted,
		"cycles_skipped":    sc.CyclesSkipped,
		"proc_steps":        sc.ProcSteps,
		"kernel_ticks":      sc.KernelTicks,
		"fifo_commits":      sc.FifoCommits,
		"shards":            int64(sc.Shards),
		"syncs":             sc.Syncs,
		"windows":           sc.Windows,
		"steals":            sc.Steals,
	}
}

// counterDiff describes how two counter sets differ ("" when equal).
func counterDiff(got, want map[string]int64) string {
	var d []string
	for _, n := range counterNames {
		if got[n] != want[n] {
			d = append(d, fmt.Sprintf("%s %d (want %d)", n, got[n], want[n]))
		}
	}
	return strings.Join(d, ", ")
}

func loadReference() (map[string]refEntry, error) {
	refs := map[string]refEntry{}
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return refs, nil
}

// checker validates every job against the reference and keeps the first
// exact counters seen per job, so any run of the same job that reports
// different counters — a later run in this process, or the traced pass —
// is caught.
type checker struct {
	refs map[string]refEntry

	mu    sync.Mutex
	seen  map[string]map[string]int64
	drift map[string]string // jobs whose counters differ from reference.json
}

func newChecker(refs map[string]refEntry) *checker {
	return &checker{refs: refs, seen: map[string]map[string]int64{}, drift: map[string]string{}}
}

// check returns why a job's output is wrong, or nil. Cycles and digest
// must equal the reference; counters must repeat exactly within the
// process. Counters that differ from reference.json are only flagged
// (see report), since a faster scheduler may legitimately do less work.
func (c *checker) check(key string, res *workload.Result, runErr error) error {
	if runErr != nil {
		return runErr
	}
	if res == nil {
		return fmt.Errorf("no result")
	}
	ref, ok := c.refs[key]
	if !ok {
		return fmt.Errorf("no reference values for job %s", key)
	}
	if res.Cycles != ref.Cycles || res.OutputDigest != ref.Digest {
		return fmt.Errorf("output mismatch: cycles %d digest %s, want cycles %d digest %s",
			res.Cycles, res.OutputDigest, ref.Cycles, ref.Digest)
	}
	got := counters(res.Stats)
	c.mu.Lock()
	defer c.mu.Unlock()
	if first, ok := c.seen[key]; ok {
		if d := counterDiff(got, first); d != "" {
			return fmt.Errorf("exact counters differ from an earlier run of the same job: %s", d)
		}
		return nil
	}
	c.seen[key] = got
	if d := counterDiff(got, ref.Counters); d != "" {
		c.drift[key] = d
	}
	return nil
}

// fingerprint hashes the counters of every job seen, so two runs can be
// compared at a glance.
func (c *checker) fingerprint() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.seen))
	for k := range c.seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		fmt.Fprintf(h, "%s", k)
		for _, n := range counterNames {
			fmt.Fprintf(h, " %d", c.seen[k][n])
		}
		fmt.Fprintln(h)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// record runs every job of every workload once and writes their reference
// values to path.
func record(path string) error {
	refs := map[string]refEntry{}
	for _, w := range workloads {
		p, err := w.setup(1, 1)
		if err != nil {
			return fmt.Errorf("%s: setup: %w", w.name, err)
		}
		for _, j := range p.jobs() {
			res, err := runOnce(p, j)
			if err != nil {
				return fmt.Errorf("%s: %w", j.key, err)
			}
			refs[j.key] = refEntry{Cycles: res.Cycles, Digest: res.OutputDigest, Counters: counters(res.Stats)}
			fmt.Fprintf(os.Stderr, "recorded %s: %d cycles, digest %s\n", j.key, res.Cycles, res.OutputDigest)
		}
	}
	out, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
