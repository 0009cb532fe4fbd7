// Command perfbench is the repository benchmark: the wall-clock time to a
// certified facility-location solution, and its cost, on fixed workloads.
//
//	bash perfbench/run.sh --workload e2_deep --seed 1 --seconds 20 --trace 0
//
// Every run generates its instance from --seed, solves it repeatedly for
// --seconds through the public calls only (gen, core.Solve, or
// core.SolveShard + core.Assemble over internal/transport/udp), and
// re-checks every solution outside the timed window. --trace 0 prints the
// end-to-end metrics; --trace 1 alternates untraced and traced solves and
// prints the per-layer metrics derived from the spans of the traced ones.
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"},...}}
//
// The command exits non-zero when any solve fails. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"dfl/internal/core"
	"dfl/internal/fl"
	"dfl/internal/gen"
)

// workload is one instance family plus how it is solved. Why each exists
// is recorded in README.md and BENCHMARK.json.
type workload struct {
	name string
	gen  gen.Generator
	k    int
	opts []core.Option // extra core.Solve options
	// shards > 0 solves over that many UDP shards on loopback instead of
	// one in-process core.Solve.
	shards int
}

var workloads = []workload{
	// million_wide is run by hand only; BENCHMARK.json does not declare it,
	// because its run-to-run spread is wider than any allowed bound.
	{name: "million_wide", gen: gen.Uniform{M: 100, NC: 1_000_000, Density: 0.03, MinDegree: 2}, k: 4},
	{name: "e2_deep", gen: gen.Uniform{M: 800, NC: 6400, Density: 0.2, MinDegree: 3}, k: 16},
	{name: "e2_lossy", gen: gen.Uniform{M: 800, NC: 6400, Density: 0.2, MinDegree: 3}, k: 16,
		opts: []core.Option{core.WithLossyNetwork(0.1), core.WithReliableDelivery(4)}},
	// flgen's sparse family at m=400, nc=20000.
	{name: "fleet_udp2", gen: gen.Uniform{M: 400, NC: 20000, Density: 0.1, MinDegree: 2}, k: 16, shards: 2},
}

const (
	// minSolves is the least number of timed solves a run makes, even past
	// --seconds, so every median has at least three samples; trace runs
	// need two of each kind.
	minSolves      = 3
	minTracedPairs = 2
	// Setup is repeated at least minSetups times, and up to maxSetups
	// times while the repetitions have taken less than setupBudget.
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 4 * time.Second
	// solveTimeout turns a hung solve into a counted failure.
	solveTimeout = 60 * time.Second
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	spans    string
}

func parseFlags(args []string) (options, workload, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Int64Var(&o.seed, "seed", 1, "instance and protocol seed")
	fs.IntVar(&o.seconds, "seconds", 20, "how long the timed solves run, in seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fs.StringVar(&o.spans, "spans", "", "where a traced run writes its spans (default .bench_build/spans/<workload>-seed<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return o, workload{}, err
	}
	if fs.NArg() > 0 {
		return o, workload{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return o, workload{}, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	if o.seconds < 1 {
		return o, workload{}, fmt.Errorf("--seconds must be at least 1, got %d", o.seconds)
	}
	if o.spans == "" {
		o.spans = fmt.Sprintf(".bench_build/spans/%s-seed%d.jsonl", o.workload, o.seed)
	}
	for _, w := range workloads {
		if w.name == o.workload {
			return o, w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return o, workload{}, fmt.Errorf("unknown --workload %q (want one of %v)", o.workload, names)
}

func main() {
	o, w, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !run(o, w, os.Stdout) {
		os.Exit(1)
	}
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one benchmark run and prints its report; it returns false
// when any solve failed.
func run(o options, w workload, out io.Writer) bool {
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%d trace=%t gomaxprocs=%d nproc=%d go=%s\n",
		w.name, o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	inst, setups, err := setup(w, o.seed, tr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
		return false
	}
	s := &solver{w: w, inst: inst, cfg: core.Config{K: w.k}, seed: o.seed, heap: watchHeap()}
	if w.shards > 0 {
		// The in-process reference every fleet solve must reproduce,
		// computed outside the timed window.
		if s.ref, err = s.reference(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: reference solve:", err)
			return false
		}
	}

	var plain, traced []sample
	attempted, failed := 0, 0
	var start time.Time
	budget := time.Duration(o.seconds) * time.Second
	for i := -1; ; i++ {
		// Solve -1 is an untimed warm-up that grows the heap to its working
		// size, a cost a long-lived caller pays once. It is checked like
		// every other solve. In a trace run it is traced (into a throwaway
		// tracer), since the observer makes the heap larger still.
		warmUp := i < 0
		// Trace runs alternate untraced and traced solves, so both see the
		// same heap and the same machine state.
		withTrace := o.trace && (warmUp || i%2 == 1)
		enough := len(plain) >= minSolves
		if o.trace {
			enough = len(plain) >= minTracedPairs && len(traced) >= minTracedPairs
		}
		if !warmUp && enough && time.Since(start) >= budget {
			break
		}
		var t *tracer
		if withTrace {
			t = tr
			if warmUp {
				t = newTracer()
			}
		}
		attempted++
		smp, err := s.timedSolve(i, t)
		if err != nil {
			// One failure decides the run; a hung solve would still hold
			// the process anyway.
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: solve %d failed: %v\n", i, err)
			break
		}
		switch {
		case warmUp:
			start = time.Now()
		case withTrace:
			traced = append(traced, smp)
		default:
			plain = append(plain, smp)
		}
	}

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if o.trace {
		if err := tr.write(o.spans, o, w); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write spans:", err)
			res.Correct = false
		}
		layers := tr.layerMetrics(w.shards > 0)
		plainSolve := median(solveTimes(plain))
		tracedSolve := median(solveTimes(traced))
		layers = append(layers,
			row{name: "trace.solve_s", value: tracedSolve, unit: "s", n: len(traced), note: "traced solve wall time"},
			row{name: "trace.overhead_s", value: tracedSolve - plainSolve, unit: "s", n: len(traced),
				note: fmt.Sprintf("traced minus untraced solve_s (untraced %.4f s, n=%d)", plainSolve, len(plain))},
		)
		printRows(out, layers, res.Metrics)
		fmt.Fprintf(out, "spans written to %s\n", o.spans)
	} else {
		printRows(out, endToEnd(plain, setups, s.cost), res.Metrics)
	}
	// failed_frac is 0 on a healthy run, so it is printed but carried in
	// the result line by attempted and failed only.
	printRows(out, []row{{name: "failed_frac", value: float64(failed) / float64(attempted), unit: "ratio", n: attempted,
		note: fmt.Sprintf("%d of %d solves failed", failed, attempted), textOnly: true}}, res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return false
	}
	fmt.Fprintln(out, string(line))
	return res.Correct
}

// row is one printed metric. Rows marked textOnly stay out of the result
// line: they belong to a layer only one workload exercises, and every
// result line of a mode carries the same metric names.
type row struct {
	name     string
	value    float64
	unit     string
	n        int
	note     string
	textOnly bool
}

func printRows(out io.Writer, rows []row, into map[string]metric) {
	for _, r := range rows {
		fmt.Fprintf(out, "%-26s %-18s %-6s n=%d %s\n", r.name, strconv.FormatFloat(r.value, 'f', -1, 64), r.unit, r.n, r.note)
		if !r.textOnly {
			into[r.name] = metric{Value: r.value, Unit: r.unit}
		}
	}
}

func endToEnd(plain []sample, setups []float64, cost int64) []row {
	times := solveTimes(plain)
	var peaks []float64
	for _, s := range plain {
		peaks = append(peaks, s.peakMiB)
	}
	return []row{
		{name: "solve_s", value: median(times), unit: "s", n: len(times), note: spreadNote(times)},
		{name: "setup_s", value: median(setups), unit: "s", n: len(setups), note: spreadNote(setups)},
		{name: "peak_heap_mib", value: median(peaks), unit: "MiB", n: len(peaks), note: spreadNote(peaks)},
		{name: "cost", value: float64(cost), unit: "units", n: len(plain), note: "certified, identical on every solve"},
	}
}

// setup generates the workload's instance several times, timing only the
// Generate call, and returns the last instance with the timings. Each
// repetition also records the instance's live-heap footprint.
func setup(w workload, seed int64, tr *tracer) (*fl.Instance, []float64, error) {
	var inst *fl.Instance
	var times []float64
	began := time.Now()
	for n := 0; n < minSetups || (n < maxSetups && time.Since(began) < setupBudget); n++ {
		inst = nil // let the previous repetition's instance be collected
		runtime.GC()
		before := readRuntime()
		t0 := time.Now()
		next, err := w.gen.Generate(seed)
		t1 := time.Now()
		if err != nil {
			return nil, nil, err
		}
		inst = next
		runtime.GC()
		after := readRuntime()
		times = append(times, t1.Sub(t0).Seconds())
		tr.add(-1, -1, "gen.generate", t0, t1, map[string]float64{
			"instance_mib": mib(int64(after.live) - int64(before.live)),
		})
	}
	return inst, times, nil
}

func solveTimes(ss []sample) []float64 {
	var out []float64
	for _, s := range ss {
		out = append(out, s.solveS)
	}
	return out
}

// median returns the middle of xs (the mean of the middle two for even
// length), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// spreadNote lists the samples behind a median in the order they were
// taken, so drift within a run shows.
func spreadNote(xs []float64) string {
	var b strings.Builder
	b.WriteString("median of")
	for _, x := range xs {
		fmt.Fprintf(&b, " %.4g", x)
	}
	return b.String()
}

func mib(bytes int64) float64 { return float64(bytes) / (1 << 20) }
