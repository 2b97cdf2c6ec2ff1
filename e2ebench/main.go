// Command e2ebench is the repository's end-to-end benchmark: it drives the
// public dpurpc Stack over loopback xRPC with one of three closed-loop
// workloads and prints the end-to-end metrics, or with -trace 1 the
// per-layer metrics, ending with one JSON line. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"dpurpc/e2ebench/bench"
)

func main() {
	workload := flag.String("workload", "", "workload: small_serial, payload_pipelined or kv_cached")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measured seconds, split between the phases")
	traced := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	stack := flag.String("stack", "offloaded", "offloaded, or baseline for host-terminated reference figures")
	traceDir := flag.String("trace-dir", "", "directory for the traced run's Chrome trace JSON")
	setupOnce := flag.Bool("setup-once", false, "time one set-up and print it (run by the benchmark itself)")
	flag.Parse()
	if *stack != "offloaded" && *stack != "baseline" {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown -stack %q\n", *stack)
		os.Exit(2)
	}
	opts := bench.Options{Workload: *workload, Seed: *seed, Baseline: *stack == "baseline"}
	if *setupOnce {
		secs, ok, err := bench.SetupOnce(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
		fmt.Printf("setup_once %.9f %t\n", secs, ok)
		return
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	// The pooled datapath can wedge with every call pending (see README);
	// a run that outlives its phases by far is reported as failed instead
	// of hanging.
	limit := time.Duration((2**seconds + 60) * float64(time.Second))
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "e2ebench: run did not finish within %s; the stack stopped answering\n", limit)
		os.Exit(3)
	})
	opts.Seconds, opts.Trace, opts.TraceDir, opts.Exe, opts.Log = *seconds, *traced == 1, *traceDir, exe, os.Stdout
	rep, err := bench.Run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	for _, p := range rep.Phases {
		fmt.Printf("phase %-18s attempted=%d failed=%d\n", p.Name, p.Attempted, p.Failed)
	}
	metrics := map[string]any{}
	for _, m := range rep.Metrics {
		fmt.Printf("metric %-45s %14.4f %s\n", m.Name, m.Value, m.Unit)
		if !bench.Ungated[m.Name] {
			metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
		}
	}
	if rep.TracePath != "" {
		fmt.Println("chrome trace:", rep.TracePath)
	}
	t := rep.Totals()
	out, err := json.Marshal(map[string]any{
		"correct":   t.Wrong == 0,
		"attempted": t.Attempted,
		"failed":    t.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
