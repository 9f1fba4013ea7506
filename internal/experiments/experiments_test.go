package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func quick() Options { return Options{Quick: true, Seed: 7} }

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"capacity", "divergence", "fig10", "fig16", "fig17", "fig18",
		"fig19", "fig1a", "fig1b", "fig2", "fig20", "fig21", "fig6",
		"memory", "table1", "table2", "table3", "table4", "table5", "tta",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("ids %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ids %v, want %v", got, want)
		}
	}
	if _, err := Run("nope", quick()); err == nil {
		t.Fatal("unknown id must error")
	}
}

func TestResultFormatting(t *testing.T) {
	r := &Result{ID: "x", Title: "t", Header: []string{"a", "bb"},
		Rows: [][]string{{"1", "2"}}, Notes: []string{"n"}}
	s := r.String()
	for _, frag := range []string{"== x: t ==", "a", "bb", "note: n"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("missing %q in %q", frag, s)
		}
	}
}

func TestHarvestProducesDenseActs(t *testing.T) {
	hs := harvest(quick(), 2)
	if len(hs) < 5 {
		t.Fatalf("harvested only %d refs", len(hs))
	}
	dense := denseActs(hs)
	if len(dense) < 3 {
		t.Fatalf("dense activations %d", len(dense))
	}
}

func cell(t *testing.T, r *Result, row, col int) float64 {
	t.Helper()
	s := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(r.Rows[row][col], "%"), "x"), "dB")
	s = strings.TrimPrefix(s, "+")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q: %v", row, col, r.Rows[row][col], err)
	}
	return v
}

func TestFig2ActivationsFlatterThanImages(t *testing.T) {
	r, err := Run("fig2", quick())
	if err != nil {
		t.Fatal(err)
	}
	// Rows: images low/mid/high then activations low/mid/high.
	imgLow, imgHigh := cell(t, r, 0, 2), cell(t, r, 2, 2)
	actLow, actHigh := cell(t, r, 3, 2), cell(t, r, 5, 2)
	if imgLow <= imgHigh {
		t.Fatalf("image spectrum must fall: low %v high %v", imgLow, imgHigh)
	}
	// Flatness: activation high/low ratio must exceed the image one.
	if actHigh/actLow <= imgHigh/imgLow {
		t.Fatalf("activations not flatter: img %v/%v act %v/%v", imgHigh, imgLow, actHigh, actLow)
	}
}

func TestFig6FrequencyGain(t *testing.T) {
	r, err := Run("fig6", quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 3 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	positive := 0
	for i := range r.Rows {
		if cell(t, r, i, 4) > 0 {
			positive++
		}
	}
	if positive*2 < len(r.Rows) {
		t.Fatalf("frequency gain positive on only %d/%d layers", positive, len(r.Rows))
	}
}

func TestFig10ValleyShape(t *testing.T) {
	r, err := Run("fig10", quick())
	if err != nil {
		t.Fatal(err)
	}
	// Quick mode rows: S = 0.5, 1.125, 4.0. For the JPEG pipelines the
	// valley sits at S = 1.125 (Fig. 10: truncation error grows at small S
	// once DCT quantization follows); SFPR alone is flat at small S, so
	// there we only require heavy clipping (S = 4) to be the worst point.
	for col := 2; col <= 3; col++ {
		lo, mid, hi := cell(t, r, 0, col), cell(t, r, 1, col), cell(t, r, 2, col)
		if !(mid < lo && mid < hi) {
			t.Fatalf("col %d: S landscape not a valley: %v %v %v", col, lo, mid, hi)
		}
	}
	if !(cell(t, r, 2, 1) > cell(t, r, 1, 1)) {
		t.Fatal("SFPR at S=4 must be worse than at S=1.125")
	}
}

func TestFig21MoreCDUsHelpOnlyAtHighRatio(t *testing.T) {
	r, err := Run("fig21", quick())
	if err != nil {
		t.Fatal(err)
	}
	// Row 0 = 2x: col 4 (8 CDU) ≈ col 1 (1 CDU).
	if v := cell(t, r, 0, 4); v > 1.05 {
		t.Fatalf("2x ratio speedup with 8 CDUs = %v, want ~1", v)
	}
	// Row 3 = 12x: 8 CDUs clearly faster than 1.
	if v := cell(t, r, 3, 4); v < 1.1 {
		t.Fatalf("12x ratio speedup with 8 CDUs = %v, want > 1.1", v)
	}
}

func TestFig20JPEGActWins(t *testing.T) {
	r, err := Run("fig20", quick())
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range r.Rows {
		if row[0] == "VDSR" {
			continue // compute-bound, all methods ≈ 1
		}
		act := cell(t, r, i, 5)
		cdma := cell(t, r, i, 1)
		if act <= cdma {
			t.Fatalf("%s: JPEG-ACT %v not above cDMA+ %v", row[0], act, cdma)
		}
		if act < 1.5 {
			t.Fatalf("%s: JPEG-ACT relative perf %v too low", row[0], act)
		}
	}
}

func TestTable2PolicyShape(t *testing.T) {
	r, err := Run("table2", quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 9 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row[0] == "JPEG-ACT/optL5H" {
			if row[1] != "SFPR+DCT+SH+ZVC" || row[2] != "BRC" {
				t.Fatalf("JPEG-ACT policy row wrong: %v", row)
			}
		}
	}
}

func TestTable3OptHCompressesMost(t *testing.T) {
	r, err := Run("table3", quick())
	if err != nil {
		t.Fatal(err)
	}
	// In every back-end row, optH (col 4) > optL (col 3).
	for i := range r.Rows {
		if cell(t, r, i, 4) <= cell(t, r, i, 3) {
			t.Fatalf("row %v: optH must beat optL", r.Rows[i])
		}
	}
	// The shipped JPEG-ACT cell (SH+ZVC × optH) compresses ≥ 4× (beats
	// plain SFPR).
	if v := cell(t, r, 3, 4); v < 4 {
		t.Fatalf("SH+ZVC optH ratio %v", v)
	}
}

func TestTable4And5(t *testing.T) {
	r4, err := Run("table4", quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r4.Rows) != 7 {
		t.Fatalf("table4 rows %d", len(r4.Rows))
	}
	r5, err := Run("table5", quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r5.Rows) != 4 {
		t.Fatalf("table5 rows %d", len(r5.Rows))
	}
	// Every design under 1% of GPU area/power.
	for i := range r5.Rows {
		if cell(t, r5, i, 5) >= 1 || cell(t, r5, i, 6) >= 1 {
			t.Fatalf("design %s exceeds 1%% GPU budget", r5.Rows[i][0])
		}
	}
}

func TestFig1bShape(t *testing.T) {
	r, err := Run("fig1b", quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	// Ratios must increase from vDNN to JPEG-ACT.
	if !(cell(t, r, 0, 1) < cell(t, r, 2, 1) && cell(t, r, 2, 1) < cell(t, r, 3, 1)) {
		t.Fatalf("ratio ordering wrong: %v", r.Rows)
	}
}

func TestCapacityShape(t *testing.T) {
	r, err := Run("capacity", quick())
	if err != nil {
		t.Fatal(err)
	}
	// vDNN stalls grow as capacity shrinks; JPEG-ACT stalls stay at or
	// below vDNN's everywhere.
	prev := -1.0
	for i := range r.Rows {
		v := cell(t, r, i, 1)
		a := cell(t, r, i, 2)
		if a > v+1e-9 {
			t.Fatalf("row %d: JPEG-ACT stall %v above vDNN %v", i, a, v)
		}
		if prev >= 0 && v < prev-1e-9 {
			t.Fatalf("vDNN stalls not monotone: %v after %v", v, prev)
		}
		prev = v
	}
	// GIST keeps 0.386 of the fp32 footprint resident on this workload
	// (8-bit DPR, CSR, BRC): it fits at half capacity and not at a quarter.
	if r.Rows[1][0] != "0.50" || r.Rows[1][3] != "true" {
		t.Fatalf("GIST should fit at 50%% capacity: %v", r.Rows[1])
	}
	if r.Rows[2][0] != "0.25" || r.Rows[2][3] != "false" {
		t.Fatalf("GIST should not fit at 25%% capacity: %v", r.Rows[2])
	}
}

func TestMemoryShape(t *testing.T) {
	r, err := Run("memory", quick())
	if err != nil {
		t.Fatal(err)
	}
	for i := range r.Rows {
		base := cell(t, r, i, 2)
		act := cell(t, r, i, 6)
		if act >= base {
			t.Fatalf("row %v: JPEG-ACT footprint not smaller", r.Rows[i])
		}
	}
}

func TestFig1aRenders(t *testing.T) {
	r, err := Run("fig1a", quick())
	if err != nil {
		t.Fatal(err)
	}
	var sawCompute, sawMemcpy bool
	for _, row := range r.Rows {
		if strings.Contains(row[0], "#") {
			sawCompute = true
		}
		if strings.Contains(row[0], "=") {
			sawMemcpy = true
		}
	}
	if !sawCompute || !sawMemcpy {
		t.Fatalf("gantt missing stream marks")
	}
}
