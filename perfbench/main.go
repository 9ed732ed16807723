// Command perfbench is the repository's end-to-end benchmark. It drives
// vload's virtual fleet as a closed loop against the real serving stack
// in-process: a flat coord.Server, or a shard.Gateway with a
// shard.Leader and shard coordinators exchanging partials over HTTP. It
// prints every metric by name with its unit, checks that the run was
// correct, and prints a JSON result as its last line:
//
//	bash perfbench/run.sh --workload robust-commit --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics. With --trace 1
// the measured time is split into an untraced and a traced half; the run
// prints a per-layer self-time table and the tracing overhead, writes
// the spans under --out, and the result holds the per-layer metrics. Every layer
// figure comes from the benchmark's own wrappers around the layers'
// entry points; the program itself is not instrumented. WORKLOADS.md
// says why each workload exists and which metrics it should move.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	name := flag.String("workload", "", "workload to run: robust-commit, census-async or tier-2shard")
	seed := flag.Int64("seed", 1, "seed of the generated device traffic")
	seconds := flag.Float64("seconds", 30, "measured time in seconds")
	trace := flag.Int("trace", 0, "1 splits the measured time into an untraced and a traced half and reports per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory for the traced run's span file")
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive, got %v", *seconds))
	}
	o := options{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, setups: 3}
	oc, err := run(o, newClient(runtime.GOMAXPROCS(0)))
	if err != nil {
		fatal(err)
	}
	traceFile := ""
	if o.trace {
		traceFile = filepath.Join(*out, "spans-"+w.name+".tsv")
		if err := writeSpans(traceFile, oc.tr.snapshot()); err != nil {
			fatal(err)
		}
	}
	res := oc.report(os.Stdout, traceFile)
	if err := res.print(os.Stdout); err != nil {
		fatal(err)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}
