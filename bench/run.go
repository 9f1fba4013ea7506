package main

// The untraced pass: set a workload up, run fixed-work rounds through
// its product entry point, check the outputs, and reduce the samples to
// the end-to-end metrics.

import (
	"fmt"
	"runtime"
	"time"
)

// minRounds is the fewest rounds a pass measured by duration times.
const minRounds = 3

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`            // samples behind the value
	Q1    float64 `json:"q1,omitempty"` // quartiles of the samples, where the value is their median
	Q3    float64 `json:"q3,omitempty"`
	// Valid is false for a wall-clock metric measured without the second
	// P its workload needs; the count stands, the time means nothing.
	Valid bool `json:"valid"`
}

// workloadResult is one workload's outcome.
type workloadResult struct {
	Workload  string                 `json:"workload"`
	Why       string                 `json:"why"`
	Seed      uint64                 `json:"seed"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Rounds    int                    `json:"rounds"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Samples keeps the per-round values behind each median, so -compare
	// can judge a difference against the run's own spread.
	Samples map[string][]float64 `json:"samples,omitempty"`
	// Layers and Ledger come from the traced pass.
	Layers map[string]metricValue `json:"layers,omitempty"`
	Ledger *ledgerSummary         `json:"ledger,omitempty"`
}

func unitOf(name string) string {
	for _, m := range e2eSpec {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}

// runUntraced measures one workload's end-to-end metrics over c.Sz.Rounds
// rounds, or, with seconds > 0 (the driver's form), over as many rounds
// as fit in that time.
func runUntraced(w workload, c config, seconds float64) workloadResult {
	res := workloadResult{Workload: w.Name, Why: w.Why, Seed: c.Seed, Metrics: map[string]metricValue{}, Samples: map[string][]float64{}}
	fail := func(format string, args ...any) {
		res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
	}
	validTimes := !w.NeedsTwoProcs || runtime.GOMAXPROCS(0) >= 2

	var r runner
	var setups []float64
	for i := 0; i < c.Sz.Setups; i++ {
		if r != nil {
			// Only the last set-up is measured on; the others are torn down
			// through the same checks.
			for _, bad := range r.finish() {
				fail("set-up %d: %s", i, bad)
			}
		}
		t0 := time.Now()
		var err error
		if r, err = w.setup(c); err != nil {
			fail("set-up: %v", err)
			res.Attempted, res.Failed = 1, 1
			return res
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	// Start every measurement from a collected heap, so what set-up
	// allocated is not charged to the first round.
	runtime.GC()

	var wall []float64
	var work float64
	perRound := map[string][]float64{}
	firstSig := ""
	start := time.Now()
	for n := 0; ; n++ {
		if seconds <= 0 && n >= c.Sz.Rounds {
			break
		}
		if seconds > 0 && n >= minRounds && time.Since(start).Seconds() >= seconds {
			break
		}
		t0 := time.Now()
		rr := r.round()
		wall = append(wall, time.Since(t0).Seconds())
		work = rr.Work
		if n == 0 {
			firstSig = rr.Sig
		} else if rr.Sig != firstSig {
			rr.Failed = rr.Attempted
			rr.Notes = append(rr.Notes, "output signature differs from the first round's")
		}
		res.Attempted += rr.Attempted
		res.Failed += rr.Failed
		for _, note := range rr.Notes {
			fail("round %d: %s", n, note)
		}
		for k, v := range rr.Metrics {
			perRound[k] = append(perRound[k], v)
		}
	}
	res.Rounds = len(wall)
	ratio, relL2, err := r.dataPath()
	if err != nil {
		fail("%v", err)
		res.Attempted++
		res.Failed++
	}
	for _, bad := range r.finish() {
		fail("%s", bad)
		res.Attempted++
		res.Failed++
	}

	put := func(name string, samples []float64, scale float64) {
		s := make([]float64, len(samples))
		for i, v := range samples {
			s[i] = v * scale
		}
		q1, q3 := quartiles(s)
		res.Metrics[name] = metricValue{Value: median(s), Unit: unitOf(name), N: len(s), Q1: q1, Q3: q3, Valid: validTimes}
		res.Samples[name] = s
	}
	put("setup_s", setups, 1)
	put("round_ms", wall, 1e3)
	if w.WorkMetric != "" {
		rate := make([]float64, len(wall))
		for i, d := range wall {
			rate[i] = work / d
		}
		put(w.WorkMetric, rate, 1)
	}
	for k, v := range perRound {
		put(k, v, 1)
	}
	res.Metrics["peak_rss_mb"] = metricValue{Value: peakRSSMB(), Unit: "MB", N: 1, Valid: true}
	exact := map[string]float64{"compression_ratio": ratio, "recon_fidelity": 1 - relL2, "recon_rel_l2": relL2}
	for _, m := range e2eSpec {
		if v, ok := exact[m.Name]; ok && m.appliesTo(w.Name) {
			res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit, N: 1, Valid: true}
		}
	}
	share := 0.0
	if res.Attempted > 0 {
		share = float64(res.Failed) / float64(res.Attempted)
	}
	res.Metrics["failed_share"] = metricValue{Value: share, Unit: "share", N: res.Attempted, Valid: true}
	res.Correct = res.Failed == 0 && len(res.Failures) == 0
	return res
}
