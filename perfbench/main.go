// Command perfbench is the repository benchmark for dphsrc. It drives
// one workload through the public API for a fixed number of seconds,
// checks every output untimed, and prints each metric with its unit and
// better-direction, followed by one JSON result line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 they
// are the per-layer set, measured by a traced run (see trace.go).
// Workloads, metrics and the load model are described in README.md.
//
// Usage (from the module root; perfbench/run.py builds and runs it):
//
//	perfbench -workload campaign-durable -seed 7 -seconds 30 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metricSpec names one reported metric. BENCHMARK.json lists the same
// names, units and directions; TestSpecsMatchBenchmarkJSON keeps the
// two in step.
type metricSpec struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"round_p50_s", "s", "lower"},
	{"worker_p50_s", "s", "lower"},
	{"worker_p99_s", "s", "lower"},
	{"bids_per_s", "1/s", "higher"},
	{"auctions_per_s", "1/s", "higher"},
	{"payment_per_round", "payment", "lower"},
	{"success_ratio", "ratio", "higher"},
	{"allocs_per_op", "allocs", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics, one or more per layer. A layer
// a workload bypasses reports 0.
var perLayer = []metricSpec{
	{"core.build_s", "s", "lower"},
	{"core.gain_evals", "count", "lower"},
	{"core.support", "count", "lower"},
	{"core.draw_s", "s", "lower"},
	{"protocol.collect_s", "s", "lower"},
	{"protocol.labels_s", "s", "lower"},
	{"protocol.accepts_per_bid", "ratio", "lower"},
	{"protocol.bytes_per_bid", "bytes", "lower"},
	{"store.records_per_round", "count", "lower"},
	{"store.append_s", "s", "lower"},
	{"mechanism.spend_s", "s", "lower"},
	{"crowd.aggregate_s", "s", "lower"},
	{"crowd.em_s", "s", "lower"},
	{"crowd.em_iters", "count", "lower"},
	{"shard.skew", "ratio", "lower"},
	{"shard.build_max_s", "s", "lower"},
	{"shard.rejected", "count", "lower"},
	{"workload.generate_s", "s", "lower"},
	{"round.unattributed_s", "s", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

// metric is one value as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     string
	commit   string
	stateDir string
	traceOut string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses flags, runs one workload and prints its report. It returns
// the process exit code: 0 only when the run completed, whether or not
// its outputs were correct (the result line says which).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement")
	fs.StringVar(&o.size, "size", "full", "input size: full or tiny (tests)")
	fs.StringVar(&o.commit, "commit", "unknown", "source revision recorded in the metadata line")
	fs.StringVar(&o.stateDir, "state-dir", ".bench_build/state", "parent of the durable workload's state directories")
	fs.StringVar(&o.traceOut, "trace-out", "", "file the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	w, ok := workloads[o.workload]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	case trace != 0 && trace != 1:
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", trace)
		return 2
	case o.seconds <= 0:
		fmt.Fprintf(stderr, "perfbench: -seconds must be positive, got %v\n", o.seconds)
		return 2
	case o.size != "full" && o.size != "tiny":
		fmt.Fprintf(stderr, "perfbench: -size must be full or tiny, got %q\n", o.size)
		return 2
	}
	p := w.params(o.size == "tiny")
	if o.trace {
		// setup_s is not reported by a traced run: each pass sets up once.
		p.Setups = 1
	}
	rep, err := w.run(o, p)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	specs := endToEnd
	if o.trace {
		specs = perLayer
	}
	writeMeta(stdout, o, p, rep)
	res := result{Correct: len(rep.violations) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	for _, s := range specs {
		v, ok := rep.metrics[s.name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: %s did not measure %s\n", o.workload, s.name)
			return 1
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
		fmt.Fprintf(stdout, "%-26s %16.6g %-8s (%s is better)\n", s.name, v, s.unit, s.better)
	}
	for _, v := range rep.violations {
		fmt.Fprintf(stdout, "check failed: %s\n", v)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// writeMeta prints the machine and input metadata every result carries.
func writeMeta(w io.Writer, o options, p params, rep *report) {
	meta := map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"size":       o.size,
		"params":     p,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"numcpu":     runtime.NumCPU(),
		"go":         runtime.Version(),
		"commit":     o.commit,
		"samples":    rep.samples,
	}
	line, _ := json.Marshal(map[string]any{"meta": meta}) // plain maps of numbers and strings always encode
	fmt.Fprintln(w, string(line))
}

// workloadNames lists the registered workloads in order.
func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
