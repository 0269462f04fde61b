// Command smibench regenerates the paper's evaluation tables and
// figures on the simulated cluster.
//
// Usage:
//
//	smibench -list
//	smibench [-quick] all
//	smibench [-quick] table3 fig9 ...
//	smibench -ranks 8,64 -workload stencil scaling
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	quick := flag.Bool("quick", false, "trim sweeps for a fast run")
	list := flag.Bool("list", false, "list available experiments")
	jsonOut := flag.Bool("json", false, "write machine-readable JSON to stdout instead of tables (the stats schema matches what smid serves)")
	ranks := flag.String("ranks", "", "comma-separated rank counts for rank sweeps (e.g. 8,16,32,64)")
	workload := flag.String("workload", "", "restrict multi-workload experiments to one workload (e.g. stencil, bcast)")
	shards := flag.Int("shards", 0, "shard-adaptive worker slots for the sharded rows of rank sweeps and ablate-faults (0 = experiment default)")
	transportFlag := flag.String("transport", "", "restrict the transport ablation to one transport (sender-driven, receiver-driven; empty = both)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the experiment runs to this file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: smibench [-quick] [-list] <experiment>... | all\n\nexperiments:\n")
		for _, e := range bench.Experiments() {
			fmt.Fprintf(os.Stderr, "  %-8s %s\n", e.ID, e.Title)
		}
	}
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	var exps []bench.Experiment
	if len(args) == 1 && args[0] == "all" {
		exps = bench.Experiments()
	} else {
		for _, id := range args {
			e, err := bench.ByID(id)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			exps = append(exps, e)
		}
	}

	opts := bench.Options{Quick: *quick, Workload: *workload, Shards: *shards, Transport: *transportFlag}
	if *ranks != "" {
		for _, part := range strings.Split(*ranks, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad -ranks value %q: %v\n", part, err)
				os.Exit(2)
			}
			opts.Ranks = append(opts.Ranks, n)
		}
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // profile live objects, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	// jsonReport is one element of the -json stdout document.
	type jsonReport struct {
		ID      string             `json:"id"`
		Title   string             `json:"title"`
		WallSec float64            `json:"wall_sec"`
		Metrics map[string]float64 `json:"metrics,omitempty"`
		// Data is the experiment's machine-readable document — for
		// workload-level experiments, the same Result/Stats schema the
		// smid service serves per job.
		Data json.RawMessage `json:"data,omitempty"`
	}
	var jsonDoc []jsonReport

	for _, e := range exps {
		start := time.Now()
		report, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		if *jsonOut {
			jsonDoc = append(jsonDoc, jsonReport{
				ID: e.ID, Title: report.Title,
				WallSec: time.Since(start).Seconds(),
				Metrics: report.Metrics,
				Data:    json.RawMessage(report.JSON),
			})
			continue
		}
		report.Print(os.Stdout)
		fmt.Printf("  (%s regenerated in %.1fs wall time)\n\n", e.ID, time.Since(start).Seconds())
		if report.JSON != nil {
			path := "BENCH_" + e.ID + ".json"
			if report.JSONName != "" {
				path = report.JSONName
			}
			if err := os.WriteFile(path, report.JSON, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "%s: writing %s: %v\n", e.ID, path, err)
				os.Exit(1)
			}
			fmt.Printf("  (machine-readable copy written to %s)\n\n", path)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonDoc); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
