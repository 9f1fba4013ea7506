package main

// The local forms of the acceptance gate: -repeat (A/A: does the same
// code agree with itself within each metric's bound?) and -compare (did
// a change improve, leave unchanged or regress each workload × metric —
// or is the run-to-run spread too wide to say?).

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// worsening returns by what share of base the value got worse (negative:
// better), in the metric's own direction.
func worsening(m e2eMetric, base, value float64) float64 {
	if base == 0 {
		if value == 0 {
			return 0
		}
		if (value > 0) == (m.Better == "lower") {
			return math.Inf(1)
		}
		return math.Inf(-1)
	}
	d := (value - base) / math.Abs(base)
	if m.Better == "higher" {
		d = -d
	}
	return d
}

// rangeSpread is (max-min)/median: the spread of a handful of repeats,
// too few for quartiles.
func rangeSpread(xs []float64) float64 {
	m := median(xs)
	if m == 0 || len(xs) == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return (hi - lo) / math.Abs(m)
}

// repeatSuite runs the untraced suite n times in this process and prints,
// per workload and end-to-end metric, the values' relative spread against
// the metric's bound. Exact metrics must repeat exactly.
func repeatSuite(selected []workload, c config, seconds float64, n int) int {
	values := map[string]map[string][]float64{} // workload → metric → one value per repeat
	ok := true
	for rep := 0; rep < n; rep++ {
		for i, w := range selected {
			if rep > 0 || i > 0 {
				resetPeakRSS()
			}
			res := runUntraced(w, c, seconds)
			for _, f := range res.Failures {
				fmt.Fprintf(os.Stderr, "bench: repeat %d: %s: FAILED: %s\n", rep, w.Name, f)
			}
			ok = ok && res.Correct
			if values[w.Name] == nil {
				values[w.Name] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[w.Name][name] = append(values[w.Name][name], m.Value)
			}
		}
	}
	fmt.Printf("%-18s %-18s %14s %9s %7s  %-16s %s\n", "workload", "metric", "median", "spread", "bound", "verdict", "values")
	for _, w := range selected {
		for _, m := range e2eSpec {
			vs, have := values[w.Name][m.Name]
			if !have {
				continue
			}
			sp := rangeSpread(vs)
			if n >= 4 {
				sp = spread(vs)
			}
			verdict := "repeats"
			if sp > m.Bound || (m.Exact && sp > 0) {
				verdict = "DOES NOT REPEAT"
				ok = false
			}
			fmt.Printf("%-18s %-18s %14.6g %8.2f%% %6.0f%%  %-16s %.6g\n", w.Name, m.Name, median(vs), 100*sp, 100*m.Bound, verdict, vs)
		}
	}
	if !ok {
		return 1
	}
	return 0
}

func loadReport(path string) (report, error) {
	var r report
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// verdict judges one workload × metric. spreadShare is the wider of the
// two runs' own interquartile spreads.
func verdict(m e2eMetric, base, value, spreadShare float64) string {
	w := worsening(m, base, value)
	switch {
	case m.Exact && w > 0:
		return "regressed" // an exact count may not worsen at all
	case m.Exact && w < 0:
		return "improved"
	case m.Exact:
		return "unchanged"
	case spreadShare > m.Bound:
		return "unresolved" // the runs disagree with themselves by more than the bound
	case w > m.Bound:
		return "regressed"
	case -w > spreadShare && -w > m.Bound/2:
		return "improved"
	}
	return "unchanged"
}

// compareFiles prints, for each workload × end-to-end metric, the base,
// the new value, their ratio and a verdict. It returns 1 if anything
// regressed or a workload is in one report only.
func compareFiles(basePath, newPath string) int {
	a, err := loadReport(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := loadReport(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if a.Sizes != b.Sizes {
		fmt.Fprintln(os.Stderr, "bench: the two reports were measured at different sizes; their numbers do not compare")
		return 2
	}
	fmt.Printf("base %s (%s, %d cores)   new %s (%s, %d cores)\n", basePath, a.Meta.GitRev, a.Meta.Cores, newPath, b.Meta.GitRev, b.Meta.Cores)
	if a.Seed != b.Seed {
		fmt.Printf("seeds differ (%d, %d): the exact counts describe other inputs and are not judged\n", a.Seed, b.Seed)
	}
	fmt.Printf("%-18s %-18s %14s %14s %9s %8s %6s  %s\n", "workload", "metric", "base", "new", "new/base", "spread", "bound", "verdict")
	newer := map[string]workloadResult{}
	for _, w := range b.Workloads {
		newer[w.Workload] = w
	}
	regressed := false
	for _, wa := range a.Workloads {
		wb, ok := newer[wa.Workload]
		if !ok {
			fmt.Printf("%-18s missing from %s\n", wa.Workload, newPath)
			regressed = true
			continue
		}
		delete(newer, wa.Workload)
		for _, m := range e2eSpec {
			ma, okA := wa.Metrics[m.Name]
			mb, okB := wb.Metrics[m.Name]
			if !okA && !okB {
				continue
			}
			if okA != okB {
				fmt.Printf("%-18s %-18s in one report only\n", wa.Workload, m.Name)
				regressed = true
				continue
			}
			sp := math.Max(spread(wa.Samples[m.Name]), spread(wb.Samples[m.Name]))
			v := verdict(m, ma.Value, mb.Value, sp)
			switch {
			case !ma.Valid || !mb.Valid:
				v = "invalid (needs GOMAXPROCS >= 2)"
			case m.Exact && a.Seed != b.Seed:
				v = "other inputs"
			}
			regressed = regressed || v == "regressed"
			ratio := math.NaN()
			if ma.Value != 0 {
				ratio = mb.Value / ma.Value
			}
			fmt.Printf("%-18s %-18s %14.6g %14.6g %9.4f %7.2f%% %5.0f%%  %s\n", wa.Workload, m.Name, ma.Value, mb.Value, ratio, 100*sp, 100*m.Bound, v)
		}
	}
	for _, wb := range b.Workloads {
		if _, extra := newer[wb.Workload]; extra {
			fmt.Printf("%-18s missing from %s\n", wb.Workload, basePath)
			regressed = true
		}
	}
	if regressed {
		return 1
	}
	return 0
}
