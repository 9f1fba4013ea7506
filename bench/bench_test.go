package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func approx(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(b)) }

func TestPercentilesAndQuartiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := percentile(xs, 0.9); !approx(got, 4.6) {
		t.Errorf("p90 = %v, want 4.6", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	q1, q3 := quartiles(ten)
	if !approx(q1, 2.75) || !approx(q3, 8.25) {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got := spread(ten); !approx(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// span builds a closed span by hand.
func mkSpan(name string, track int, start, end int64, parent spanID) span {
	return span{Name: name, Track: track, Start: start, End: end, Parent: parent}
}

func TestSelfTimeAndLedger(t *testing.T) {
	spans := []span{
		mkSpan("step", 0, 0, 100, noSpan),              // 0
		mkSpan("nn.forward", 0, 10, 50, 0),             // 1
		mkSpan("offload.offload_call", 0, 20, 25, 1),   // 2: hook inside forward
		mkSpan("offload.offload_call", 0, 30, 40, 1),   // 3
		mkSpan("nn.backward", 0, 50, 95, 0),            // 4
		mkSpan("transport.channel_send", 1, 20, 90, 0), // 5: other track, overlaps freely
		mkSpan("step", 0, 100, 150, noSpan),            // 6: second step, no children
	}
	self := selfTimes(spans)
	want := []int64{15, 25, 5, 10, 45, 70, 50}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times = %v, want %v", self, want)
	}
	rows := ledger(spans, "step")
	if len(rows) != 2 {
		t.Fatalf("%d ledger rows, want 2", len(rows))
	}
	if rows[0].total() != rows[0].DurNS {
		t.Errorf("self times sum to %d, step is %d", rows[0].total(), rows[0].DurNS)
	}
	if got := rows[0].attributed("step"); !approx(got, 0.85) {
		t.Errorf("attributed = %v, want 0.85", got)
	}
	if _, ok := rows[0].SelfNS["transport.channel_send"]; ok {
		t.Error("a background-track span entered the step's ledger")
	}
	if got := perRow(rows, "offload.offload_call"); !approx(got[0], 15e-6) || got[1] != 0 {
		t.Errorf("per-step offload_call ms = %v", got)
	}
	// Children that overlap each other or outlive the parent are counted once.
	overlap := []span{
		mkSpan("p", 0, 0, 100, noSpan),
		mkSpan("a", 0, 10, 60, 0),
		mkSpan("b", 0, 40, 120, 0),
	}
	if got := selfTimes(overlap)[0]; got != 10 {
		t.Errorf("self time under overlapping children = %d, want 10", got)
	}
}

func TestRecorderNilAndPause(t *testing.T) {
	var off *recorder
	off.end(off.begin("x")) // tracing off: no-ops, no panic
	off.endAsync(off.async("y", trackChannel))
	if off.snapshot() != nil {
		t.Error("nil recorder recorded something")
	}
	r := newRecorder("w")
	r.at(3, 7)
	outer := r.begin("step")
	bg := r.async("transport.conn_write", trackConn)
	r.pause(true)
	r.end(r.begin("dropped"))
	r.pause(false)
	r.endAsync(bg)
	r.end(outer)
	spans := r.snapshot()
	if len(spans) != 2 {
		t.Fatalf("%d spans, want 2 (the paused one dropped)", len(spans))
	}
	if spans[1].Parent != 0 || spans[1].Round != 3 || spans[1].Step != 7 {
		t.Errorf("background span %+v does not point at its step", spans[1])
	}
}

func smokeConfig(t *testing.T) config {
	return config{Seed: 42, Sz: smokeSizes, Dir: t.TempDir()}
}

// TestSmokeEveryWorkload runs the -smoke size of all six workloads through
// both passes: each completes, passes its output checks, fills every gated
// metric with a nonzero value, and (where it has one) closes its ledger.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		c := smokeConfig(t)
		res := runUntraced(w, c, 0)
		rec := runTraced(w, c, 0, &res)
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d: %v", w.Name, res.Correct, res.Attempted, res.Failed, res.Failures)
		}
		if res.Metrics["failed_share"].Value != 0 {
			t.Errorf("%s: failed_share = %v", w.Name, res.Metrics["failed_share"].Value)
		}
		for _, m := range e2eSpec {
			got, have := res.Metrics[m.Name]
			if have != m.appliesTo(w.Name) {
				t.Errorf("%s: metric %s present=%v, spec says %v", w.Name, m.Name, have, m.appliesTo(w.Name))
			}
			if m.Gated && !(got.Value > 0) {
				t.Errorf("%s: gated metric %s = %v, must never be 0", w.Name, m.Name, got.Value)
			}
		}
		for _, m := range perLayerSpec {
			got := res.Layers[m.Name]
			if !m.appliesTo(w.Name) && got.Value != 0 {
				t.Errorf("%s: %s = %v on a workload that does not enter that layer", w.Name, m.Name, got.Value)
			}
			if m.appliesTo(w.Name) && got.N == 0 {
				t.Errorf("%s: %s was not measured", w.Name, m.Name)
			}
		}
		if root, ok := ledgerRoots[w.Name]; ok {
			if res.Ledger == nil || res.Ledger.Steps == 0 || 1-res.Ledger.Attributed > ledgerTolerance || res.Ledger.WorstGap > ledgerTolerance {
				t.Errorf("%s: ledger per %s does not close: %+v", w.Name, root, res.Ledger)
			}
		}
		if len(rec.snapshot()) == 0 {
			t.Errorf("%s: the traced pass recorded no span", w.Name)
		}
		// The driver's line carries exactly its four keys and every metric.
		gated := 0
		for _, m := range e2eSpec {
			if m.Gated {
				gated++
			}
		}
		for traced, want := range map[bool]int{false: gated, true: len(perLayerSpec)} {
			var line struct {
				Correct   *bool                      `json:"correct"`
				Attempted int                        `json:"attempted"`
				Failed    *int                       `json:"failed"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(driverLine(res, traced)), &line); err != nil {
				t.Fatal(err)
			}
			if line.Correct == nil || !*line.Correct || line.Failed == nil || line.Attempted < 1 || len(line.Metrics) != want {
				t.Errorf("%s: driver line (traced=%v) = %+v, want %d metrics", w.Name, traced, line, want)
			}
		}
	}
}

// TestLedgerClosesOnTinyConfig is the issue's tiny configuration: Width 4,
// two steps, the offloaded loop over the simulated channel.
func TestLedgerClosesOnTinyConfig(t *testing.T) {
	c := smokeConfig(t)
	rec := newRecorder(wlOffloadDMA)
	env := loopEnv{c: c, offload: true, async: true, channel: newSimChannel(c.Sz, rec)}
	lr := env.round(rec, 0)
	if lr.Err != nil {
		t.Fatal(lr.Err)
	}
	sum := summarizeLedger(rec.snapshot(), "step")
	if sum.Steps != 2 {
		t.Fatalf("%d step spans, want 2", sum.Steps)
	}
	if 1-sum.Attributed > ledgerTolerance || sum.WorstGap > ledgerTolerance {
		t.Errorf("ledger does not close within 5%%: %+v", sum)
	}
	rows := ledger(rec.snapshot(), "step")
	for _, name := range []string{"data.batch", "nn.forward", "nn.loss", "offload.end_forward", "offload.prepare_backward", "nn.backward", "offload.restore", "offload.end_step", "nn.optimizer"} {
		if rows[0].SelfNS[name] <= 0 {
			t.Errorf("step 0 has no %s self time", name)
		}
	}
	var sends int
	for _, s := range rec.snapshot() {
		if s.Name == "transport.channel_send" && s.Track == trackChannel {
			sends++
		}
	}
	if sends == 0 {
		t.Error("no channel transfer was recorded on the channel track")
	}
}

func TestWallClockInvalidWithoutSecondP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	w, _ := findWorkload(wlStoreMixed)
	res := runUntraced(w, smokeConfig(t), 0)
	if !res.Correct {
		t.Fatalf("store_mixed failed on one P: %v", res.Failures)
	}
	for _, name := range []string{"round_ms", "ops_per_s", "op_us_p50", "setup_s"} {
		if res.Metrics[name].Valid {
			t.Errorf("%s is marked valid with GOMAXPROCS=1", name)
		}
	}
	for _, name := range []string{"failed_share", "compression_ratio", "recon_fidelity"} {
		if m := res.Metrics[name]; !m.Valid || m.N == 0 {
			t.Errorf("the counts must stand on one P: %s = %+v", name, m)
		}
	}
	// Per-layer: counts and ratios of counts stand, a ratio of two wall
	// times does not, whatever its unit.
	dp, _ := findWorkload(wlDP2Net)
	var traced workloadResult
	runTraced(dp, smokeConfig(t), 0, &traced)
	for name, want := range map[string]bool{
		"train.dp_grad_puts_per_step": true, "train.dp_grad_kb_per_step": true, "gpusim.pred_dp2_speedup": true,
		"train.dp_overlap_gain": false, "train.dp_scaling_efficiency": false, "transport.put_us_p50": false, "proc.cpu_util": false,
	} {
		if got := traced.Layers[name].Valid; got != want {
			t.Errorf("%s valid=%v with GOMAXPROCS=1, want %v", name, got, want)
		}
	}
	plain, _ := findWorkload(wlTrainPlain)
	if res := runUntraced(plain, smokeConfig(t), 0); !res.Metrics["round_ms"].Valid {
		t.Error("train_plain needs no second P, yet its round_ms is invalid")
	}
}

// TestSeedIsARealArgument: another seed gives another model, other data
// and other captured tensors — and still passes every output check.
func TestSeedIsARealArgument(t *testing.T) {
	sig := func(seed uint64) (string, float64) {
		c := smokeConfig(t)
		c.Seed = seed
		r, err := setupCodecStream(c)
		if err != nil {
			t.Fatal(err)
		}
		loss, _, bad := plainRound(c)
		if bad != "" {
			t.Fatal(bad)
		}
		return r.(*codecRunner).refSHA, loss
	}
	shaA, lossA := sig(42)
	shaB, lossB := sig(20200530)
	shaA2, lossA2 := sig(42)
	if shaA == shaB || lossA == lossB {
		t.Errorf("seeds 42 and 20200530 gave the same tensors (%v) or loss (%v)", shaA == shaB, lossA == lossB)
	}
	if shaA != shaA2 || lossA != lossA2 {
		t.Error("the same seed did not give the same inputs")
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := e2eMetric{Name: "round_ms", Better: "lower", Bound: 0.10}
	higher := e2eMetric{Name: "samples_per_s", Better: "higher", Bound: 0.10}
	exact := e2eMetric{Name: "compression_ratio", Better: "higher", Bound: 0.02, Exact: true}
	for _, tc := range []struct {
		m                   e2eMetric
		base, value, spread float64
		want                string
	}{
		{lower, 100, 101, 0.02, "unchanged"},
		{lower, 100, 115, 0.02, "regressed"},
		{lower, 100, 80, 0.02, "improved"},
		{lower, 100, 80, 0.15, "unresolved"}, // spread wider than the bound
		{lower, 100, 97, 0.05, "unchanged"},  // better, but inside the noise
		{higher, 50, 40, 0.02, "regressed"},
		{higher, 50, 60, 0.02, "improved"},
		{exact, 5.25, 5.25, 0, "unchanged"},
		{exact, 5.25, 5.24, 0, "regressed"}, // an exact count may not fall at all
		{exact, 5.25, 5.30, 0, "improved"},
	} {
		if got := verdict(tc.m, tc.base, tc.value, tc.spread); got != tc.want {
			t.Errorf("%s %v→%v spread %v: %s, want %s", tc.m.Name, tc.base, tc.value, tc.spread, got, tc.want)
		}
	}
	if got := rangeSpread([]float64{98, 100, 103}); !approx(got, 0.05) {
		t.Errorf("rangeSpread = %v, want 0.05", got)
	}
}

func TestSameFrameSeesADifference(t *testing.T) {
	frames, err := activationFrames(captureActivations(smokeConfig(t)))
	if err != nil {
		t.Fatal(err)
	}
	f := frames[0]
	other := *f
	other.Payload = append([]byte(nil), f.Payload...)
	if !sameFrame(f, &other) {
		t.Error("a copy of the frame does not compare equal")
	}
	other.Payload[len(other.Payload)/2] ^= 1
	if sameFrame(f, &other) {
		t.Error("a flipped payload bit went unnoticed")
	}
	if sameFrame(f, frames[1]) {
		t.Error("two different activations compare equal")
	}
}

// TestCompareMissingWorkload: a workload (or metric) that one report lacks
// is a failure, not silence.
func TestCompareMissingWorkload(t *testing.T) {
	m := map[string]metricValue{"round_ms": {Value: 100, Unit: "ms", N: 12, Valid: true}}
	both := report{Workloads: []workloadResult{{Workload: wlTrainPlain, Metrics: m}, {Workload: wlStoreMixed, Metrics: m}}}
	one := report{Workloads: both.Workloads[:1]}
	noMetric := report{Workloads: []workloadResult{both.Workloads[0], {Workload: wlStoreMixed}}}
	dir := t.TempDir()
	write := func(name string, r report) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b, c := write("both.json", both), write("one.json", one), write("nometric.json", noMetric)
	for _, tc := range []struct {
		base, next string
		want       int
	}{{a, a, 0}, {a, b, 1}, {b, a, 1}, {a, c, 1}} {
		if got := compareFiles(tc.base, tc.next); got != tc.want {
			t.Errorf("compare %s %s = %d, want %d", filepath.Base(tc.base), filepath.Base(tc.next), got, tc.want)
		}
	}
}

// benchmarkJSON is the driver's schema of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []bjWorkload `json:"workloads"`
	EndToEnd   []bjE2E      `json:"end_to_end"`
	PerLayer   []bjLayer    `json:"per_layer"`
}

type bjWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type bjE2E struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type bjLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// specAsBenchmarkJSON renders spec.go in the driver's schema.
func specAsBenchmarkJSON() benchmarkJSON {
	var b benchmarkJSON
	b.Command = []string{"bash", "bench/run.sh"}
	b.Paths = []string{"bench"}
	b.RunSeconds = 10
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, bjWorkload{w.Name, w.Why})
	}
	for _, m := range e2eSpec {
		if m.Gated {
			b.EndToEnd = append(b.EndToEnd, bjE2E{m.Name, m.Unit, m.Better, m.Bound})
		}
	}
	for _, m := range perLayerSpec {
		b.PerLayer = append(b.PerLayer, bjLayer{m.Name, m.Unit, m.Better})
	}
	return b
}

// TestBenchmarkJSONMatchesSpec keeps BENCHMARK.json equal to spec.go and
// inside the driver's limits. UPDATE_BENCHMARK_JSON=1 rewrites the file.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	want := specAsBenchmarkJSON()
	path := filepath.Join("..", "BENCHMARK.json")
	if os.Getenv("UPDATE_BENCHMARK_JSON") != "" {
		if err := writeJSON(path, want); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from spec.go; run UPDATE_BENCHMARK_JSON=1 go test -run BenchmarkJSON")
	}

	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	if n := len(got.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(got.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(got.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	names := map[string]bool{}
	checkName := func(kind, name string) {
		ok := name != "" && len(name) <= 64 && strings.Trim(name, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-") == "" &&
			!strings.ContainsAny(name[:1], "_.-")
		if !ok || names[name] {
			t.Errorf("%s name %q is malformed or used twice", kind, name)
		}
		names[name] = true
	}
	checkUnit := func(unit string) {
		if unit == "" || len(unit) > 16 || strings.Trim(unit, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_/%.-") != "" {
			t.Errorf("unit %q is malformed", unit)
		}
	}
	setup := false
	for _, w := range got.Workloads {
		checkName("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	for _, m := range got.EndToEnd {
		checkName("end-to-end", m.Name)
		checkUnit(m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range got.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("end_to_end must hold setup_s in s, lower is better")
	}
	for _, m := range got.PerLayer {
		checkName("per-layer", m.Name)
		checkUnit(m.Unit)
	}
}

// TestReadmeNamesEverything: the README carries every workload and metric.
func TestReadmeNamesEverything(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	for _, w := range workloads {
		if !strings.Contains(readme, "`"+w.Name+"`") {
			t.Errorf("README.md does not name workload %s", w.Name)
		}
	}
	for _, m := range e2eSpec {
		if !strings.Contains(readme, "`"+m.Name+"`") {
			t.Errorf("README.md does not name end-to-end metric %s", m.Name)
		}
	}
	for _, m := range perLayerSpec {
		name := m.Name
		for _, k := range []string{".conv", ".relu_conv", ".relu_other", ".pool_dropout"} {
			if strings.HasPrefix(name, "codec.") && strings.HasSuffix(name, k) {
				name = strings.TrimSuffix(name, k) + ".<kind>"
			}
		}
		if !strings.Contains(readme, "`"+name+"`") {
			t.Errorf("README.md does not name per-layer metric %s", name)
		}
	}
}
