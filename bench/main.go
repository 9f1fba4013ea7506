// Command bench is the one benchmark of the offload stack: six workloads
// driven through the product entry points of the root jpegact facade
// (end-to-end metrics, tracing off), then a traced pass that records a
// span around every call into a layer and probes each layer directly
// (per-layer metrics). See README.md; BENCHMARK.json at the repository
// root is the contract the driver runs it under.
//
//	go run . -seed 42                 # whole suite, writes out/results.json and out/trace.json
//	go run . -workload store_mixed    # one workload
//	go run . -repeat 2                # A/A: spread of every end-to-end metric against its bound
//	go run . -compare a.json b.json   # improved / unchanged / regressed / unresolved per workload and metric
//
// The driver's form is `bash bench/run.sh --workload W --seed N --seconds S
// --trace 0|1`: one workload, one pass, measured for S seconds, with the
// result as one JSON object on the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"

	"jpegact/internal/benchmeta"
)

// traceFlag accepts 0/1 as well as false/true, and (not being a boolean
// flag to the flag package) takes its value as a separate argument too:
// the driver passes `--trace 0`.
type traceFlag bool

func (t *traceFlag) String() string { return strconv.FormatBool(bool(*t)) }
func (t *traceFlag) Set(s string) error {
	v, err := strconv.ParseBool(s)
	*t = traceFlag(v)
	return err
}

// report is what out/results.json holds.
type report struct {
	Benchmark string           `json:"benchmark"`
	Meta      benchmeta.Meta   `json:"meta"`
	Seed      uint64           `json:"seed"`
	Sizes     sizes            `json:"sizes"`
	Note      string           `json:"note"`
	Workloads []workloadResult `json:"workloads"`
}

const gpusimNote = "gpusim.pred_* are simulated time from a performance model that has not been validated against this host; they are printed beside the measured offload.overlap_gain and train.dp_scaling_efficiency, not instead of them"

func main() {
	seed := flag.Uint64("seed", 42, "seed for model init, data and captured tensors")
	only := flag.String("workload", "", "run a single workload (default: all six)")
	seconds := flag.Float64("seconds", 0, "the driver's form: measure for this long instead of a fixed number of rounds, and run only the pass -trace selects")
	trace := traceFlag(true)
	flag.Var(&trace, "trace", "run the traced pass (with -seconds: run only the traced pass)")
	smoke := flag.Bool("smoke", false, "tiny sizes, for tests: every workload completes and passes its output checks in seconds")
	repeat := flag.Int("repeat", 0, "A/A mode: run the untraced suite N times and print every end-to-end metric's relative spread against its bound")
	compare := flag.Bool("compare", false, "compare two results.json files given as arguments")
	outDir := flag.String("out", "out", "directory for results.json, trace.json and the unix sockets")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: bench -compare base.json new.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatalf("unexpected arguments %v", flag.Args())
	}

	selected := workloads
	if *only != "" {
		w, ok := findWorkload(*only)
		if !ok {
			fatalf("unknown workload %q (have %v)", *only, workloadNames())
		}
		selected = []workload{w}
	}
	c := config{Seed: *seed, Sz: fullSizes, Dir: *outDir}
	if *smoke {
		c.Sz = smokeSizes
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	if runtime.GOMAXPROCS(0) < 2 {
		fmt.Fprintln(os.Stderr, "bench: GOMAXPROCS < 2: train_dp2_net and store_mixed report their counts, but every wall-clock metric of theirs is marked valid=false")
	}

	if *repeat > 0 {
		os.Exit(repeatSuite(selected, c, *seconds, *repeat))
	}

	rep := report{Benchmark: "jpegact-offload-stack", Meta: benchmeta.Collect(), Seed: *seed, Sizes: c.Sz, Note: gpusimNote}
	onePass := *seconds > 0
	var recs []*recorder
	for i, w := range selected {
		if i > 0 {
			resetPeakRSS() // each workload reports its own peak
		}
		var res workloadResult
		if !onePass || !bool(trace) {
			res = runUntraced(w, c, *seconds)
			printMetrics(res.Workload, res.Metrics, e2eOrder())
		} else {
			res = workloadResult{Workload: w.Name, Why: w.Why, Seed: c.Seed, Correct: true}
		}
		if trace {
			recs = append(recs, runTraced(w, c, *seconds, &res))
			printMetrics(res.Workload, res.Layers, layerOrder())
			if res.Ledger != nil {
				fmt.Printf("%s ledger: %d %s spans, %.1f%% attributed to named layers, worst self-time gap %.2f%%\n",
					w.Name, res.Ledger.Steps, res.Ledger.Root, 100*res.Ledger.Attributed, 100*res.Ledger.WorstGap)
			}
		}
		for _, f := range res.Failures {
			fmt.Fprintf(os.Stderr, "bench: %s: FAILED: %s\n", w.Name, f)
		}
		rep.Workloads = append(rep.Workloads, res)
	}
	if trace {
		fmt.Println("note:", gpusimNote)
	}

	if err := writeJSON(filepath.Join(*outDir, "results.json"), rep); err != nil {
		fatalf("%v", err)
	}
	if trace {
		if err := writeChromeTrace(filepath.Join(*outDir, "trace.json"), recs); err != nil {
			fatalf("%v", err)
		}
	}

	ok := true
	for _, res := range rep.Workloads {
		ok = ok && res.Correct
	}
	if onePass && len(rep.Workloads) == 1 {
		// The driver's contract: the result as the last line of stdout.
		fmt.Println(driverLine(rep.Workloads[0], bool(trace)))
	}
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func e2eOrder() []string {
	var out []string
	for _, m := range e2eSpec {
		out = append(out, m.Name)
	}
	return out
}

func layerOrder() []string {
	var out []string
	for _, m := range perLayerSpec {
		out = append(out, m.Name)
	}
	return out
}

// printMetrics prints one line per metric: workload metric value unit n.
func printMetrics(workload string, ms map[string]metricValue, order []string) {
	for _, name := range order {
		m, ok := ms[name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("%s %s %s %s %d", workload, name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit, m.N)
		if !m.Valid {
			line += " valid=false"
		}
		fmt.Println(line)
	}
}

// driverLine renders a result in the driver's schema: with tracing off,
// every gated end-to-end metric; with tracing on, every per-layer metric.
func driverLine(res workloadResult, traced bool) string {
	type dm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]dm{}
	if traced {
		for _, m := range perLayerSpec {
			metrics[m.Name] = dm{res.Layers[m.Name].Value, m.Unit}
		}
	} else {
		for _, m := range e2eSpec {
			if m.Gated {
				metrics[m.Name] = dm{res.Metrics[m.Name].Value, m.Unit}
			}
		}
	}
	b, _ := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": max(res.Attempted, 1), "failed": res.Failed, "metrics": metrics,
	})
	return string(b)
}
