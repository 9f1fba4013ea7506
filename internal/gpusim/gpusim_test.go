package gpusim

import (
	"testing"

	"jpegact/internal/compress"
)

func TestConfigRates(t *testing.T) {
	cfg := TitanV(4)
	// 4 CDUs × 32 B/cycle × 1.455 GHz ≈ 186 GB/s ingest.
	if got := cfg.CDUIngestGBs(); got < 180 || got > 190 {
		t.Fatalf("ingest %v GB/s", got)
	}
	cfg.CacheSideSFPR = true
	if got := cfg.CDUIngestGBs(); got < 700 {
		t.Fatalf("cache-side ingest %v GB/s", got)
	}
	if TitanV(0).CDUIngestGBs() != 0 {
		t.Fatal("zero CDUs must have zero ingest")
	}
}

func TestComputeSecondsRoofline(t *testing.T) {
	cfg := TitanV(4)
	// Compute-bound: 1 GFLOP Winograd.
	tc := cfg.ComputeSeconds(1e9, 1e3, KernelWinograd)
	if tc <= 0 {
		t.Fatal("no compute time")
	}
	// Memory-bound: elementwise op on 1 GB.
	tm := cfg.ComputeSeconds(0, 1e9, KernelElementwise)
	want := 1e9 / (650e9 * 0.8)
	if tm < want*0.99 || tm > want*1.01 {
		t.Fatalf("elementwise time %v, want %v", tm, want)
	}
	// Low-density kernels are slower per FLOP than Winograd.
	if cfg.ComputeSeconds(1e9, 0, KernelLowDensity) <= cfg.ComputeSeconds(1e9, 0, KernelWinograd) {
		t.Fatal("low-density must be slower")
	}
}

func TestWorkloadsExist(t *testing.T) {
	ws := Workloads()
	if len(ws) != 7 {
		t.Fatalf("workloads %d, want 7", len(ws))
	}
	for _, w := range ws {
		if len(w.Layers) == 0 || w.TotalActBytes() <= 0 {
			t.Fatalf("%s empty", w.Name)
		}
	}
}

func findWorkload(t *testing.T, name string) Workload {
	t.Helper()
	for _, w := range Workloads() {
		if w.Name == name {
			return w
		}
	}
	t.Fatalf("workload %s missing", name)
	return Workload{}
}

func TestSchemeOrderingMatchesFig20(t *testing.T) {
	// On every workload: JPEG-ACT ≥ SFPR ≥ vDNN and JPEG-ACT > cDMA+.
	cfg := TitanV(4)
	for _, w := range Workloads() {
		vdnn := Simulate(w, VDNN(), cfg).Total()
		cdma := Simulate(w, CDMAPlus(), cfg).Total()
		sfpr := Simulate(w, SFPROnly(), cfg).Total()
		act := Simulate(w, JPEGAct(JPEGActDefaultRatios()), cfg).Total()
		if !(act <= sfpr && sfpr <= vdnn) {
			t.Fatalf("%s: act %v sfpr %v vdnn %v", w.Name, act, sfpr, vdnn)
		}
		if act >= cdma {
			t.Fatalf("%s: JPEG-ACT %v not faster than cDMA+ %v", w.Name, act, cdma)
		}
	}
}

func TestJPEGActSpeedupBands(t *testing.T) {
	// Aggregate speedups must land in the paper's bands: >2× over vDNN
	// (paper: 2.6×) and >1.2× over GIST (paper: 1.6×).
	cfg := TitanV(4)
	var sumVDNN, sumGIST, sumAct float64
	for _, w := range Workloads() {
		sumVDNN += Simulate(w, VDNN(), cfg).Total()
		sumGIST += Simulate(w, GIST(), cfg).Total()
		sumAct += Simulate(w, JPEGAct(JPEGActDefaultRatios()), cfg).Total()
	}
	if sp := sumVDNN / sumAct; sp < 2.0 {
		t.Fatalf("JPEG-ACT speedup over vDNN %v, want > 2", sp)
	}
	if sp := sumGIST / sumAct; sp < 1.2 {
		t.Fatalf("JPEG-ACT speedup over GIST %v, want > 1.2", sp)
	}
}

func TestGISTHurtsOnBottleneckNetworks(t *testing.T) {
	// GIST's compression kernels cost more relative to compute on
	// bottleneck networks: 1×1 convolutions have up to 9× fewer FLOPs
	// than similarly-sized 3×3 kernels, so the dense2CSR scan dominates
	// (§VI-D). Compare GIST's overhead versus the no-offload ideal on the
	// bottlenecked ResNet50/IN against the 3×3-only ResNet18/IN.
	cfg := TitanV(4)
	r50 := Overhead(findWorkload(t, "ResNet50/IN"), GIST(), cfg)
	r18 := Overhead(findWorkload(t, "ResNet18/IN"), GIST(), cfg)
	if r50 <= r18 {
		t.Fatalf("GIST overhead on ResNet50/IN (%v) should exceed ResNet18/IN (%v)", r50, r18)
	}
}

func TestJPEGActOverheadSmall(t *testing.T) {
	// JPEG-ACT nearly eliminates the PCIe bottleneck: overhead vs the
	// ideal should be small (paper: 1.13×); vDNN's is large.
	cfg := TitanV(4)
	var sumIdeal, sumAct, sumVDNN float64
	for _, w := range Workloads() {
		sumIdeal += Simulate(w, NoOffload(), cfg).Total()
		sumAct += Simulate(w, JPEGAct(JPEGActDefaultRatios()), cfg).Total()
		sumVDNN += Simulate(w, VDNN(), cfg).Total()
	}
	if ov := sumAct / sumIdeal; ov > 1.6 {
		t.Fatalf("JPEG-ACT overhead %v too large", ov)
	}
	if ov := sumVDNN / sumIdeal; ov < 1.8 {
		t.Fatalf("vDNN overhead %v suspiciously small", ov)
	}
}

func TestVDSROffloadGainsAreSmaller(t *testing.T) {
	// VDSR's few-channel large-plane layers run on low-compute-density
	// kernels: the network is compute-bound even under vDNN, so
	// compression buys less — its Fig. 20 bars sit 1.4–2.3× below the
	// other networks'.
	cfg := TitanV(4)
	s := JPEGAct(JPEGActDefaultRatios())
	vdsr := Relative(findWorkload(t, "VDSR"), s, cfg)
	r50 := Relative(findWorkload(t, "ResNet50/IN"), s, cfg)
	if vdsr >= r50/1.3 {
		t.Fatalf("VDSR relative perf %v should sit well below ResNet50/IN %v", vdsr, r50)
	}
}

func TestCDUCountSweepMatchesFig21(t *testing.T) {
	// At low compression (2×) extra CDUs do not help: PCIe is the
	// bottleneck. At high compression (12×) they do, saturating around 4.
	w := findWorkload(t, "ResNet50")
	fixedRatio := func(r float64) Scheme {
		return Scheme{Name: "fixed", Offload: true, DMASide: true,
			Ratio:          func(compress.Kind) float64 { return r },
			CompressPasses: zero, DecompressPasses: zero}
	}
	timeAt := func(ncdu int, ratio float64) float64 {
		return Simulate(w, fixedRatio(ratio), TitanV(ncdu)).Total()
	}
	// 2×: 1 CDU vs 8 CDUs nearly identical.
	if d := timeAt(1, 2) / timeAt(8, 2); d > 1.02 {
		t.Fatalf("2x compression should not scale with CDUs (%v)", d)
	}
	// 12×: 1 CDU much slower than 4; 4 ≈ 8.
	if d := timeAt(1, 12) / timeAt(4, 12); d < 1.05 {
		t.Fatalf("12x compression must benefit from CDUs (%v)", d)
	}
	if d := timeAt(4, 12) / timeAt(8, 12); d > 1.02 {
		t.Fatalf("12x compression should saturate by 4 CDUs (%v)", d)
	}
}

func TestCacheSideSFPRSmallGain(t *testing.T) {
	// §VI-E: moving SFPR to the cache side gains only ~1% over a 4-CDU
	// DMA-side design.
	w := findWorkload(t, "ResNet50")
	s := JPEGAct(JPEGActDefaultRatios())
	dma := Simulate(w, s, TitanV(4)).Total()
	cfg := TitanV(4)
	cfg.CacheSideSFPR = true
	cache := Simulate(w, s, cfg).Total()
	if cache > dma {
		t.Fatal("cache-side must not be slower")
	}
	if gain := dma / cache; gain > 1.10 {
		t.Fatalf("cache-side gain %v should be small", gain)
	}
}

func TestEffectiveOffloadTableV(t *testing.T) {
	cfg := TitanV(4)
	// Table V shape: cDMA+ (1.3×) < SFPR (4×) < JPEG-BASE (5.8×) <
	// JPEG-ACT (8.5×) in effective offload GB/s — the simulator's DMA-side
	// rate at the design's average ratio, in uncompressed GB/s.
	offloadGBs := func(avgRatio float64) float64 {
		s := Scheme{DMASide: true, Ratio: func(compress.Kind) float64 { return avgRatio }}
		return effRate(cfg, s, compress.KindConv) / 1e9
	}
	vals := []float64{
		offloadGBs(1.3), offloadGBs(4.0), offloadGBs(5.8), offloadGBs(8.5),
	}
	for i := 1; i < len(vals); i++ {
		if vals[i] <= vals[i-1] {
			t.Fatalf("offload rates not increasing: %v", vals)
		}
	}
	// JPEG-ACT band: paper reports 108.8 GB/s at 8.5×.
	if vals[3] < 90 || vals[3] > 120 {
		t.Fatalf("JPEG-ACT offload %v GB/s out of band", vals[3])
	}
}

func TestBackwardDominatedByCompute(t *testing.T) {
	// Backward has ~2× the kernel work; under JPEG-ACT the fetches should
	// hide behind compute for compute-dense networks.
	cfg := TitanV(4)
	w := findWorkload(t, "ResNet50/IN")
	r := Simulate(w, JPEGAct(JPEGActDefaultRatios()), cfg)
	if r.Backward < r.Forward {
		t.Fatalf("backward %v should exceed forward %v", r.Backward, r.Forward)
	}
}

func TestMonotonicityProperties(t *testing.T) {
	// More CDUs never slow a DMA-side scheme down; a higher compression
	// ratio never slows it down.
	w := findWorkload(t, "ResNet50/IN")
	fixed := func(r float64) Scheme {
		return Scheme{Name: "fixed", Offload: true, DMASide: true,
			Ratio:          func(compress.Kind) float64 { return r },
			CompressPasses: zero, DecompressPasses: zero}
	}
	prev := -1.0
	for _, n := range []int{1, 2, 3, 4, 6, 8} {
		tt := Simulate(w, fixed(8), TitanV(n)).Total()
		if prev >= 0 && tt > prev+1e-15 {
			t.Fatalf("adding CDUs slowed the run: %v -> %v at %d", prev, tt, n)
		}
		prev = tt
	}
	prev = -1.0
	for _, r := range []float64{1, 2, 4, 8, 16} {
		tt := Simulate(w, fixed(r), TitanV(4)).Total()
		if prev >= 0 && tt > prev+1e-15 {
			t.Fatalf("higher ratio slowed the run: %v -> %v at %vx", prev, tt, r)
		}
		prev = tt
	}
}

func TestAllWorkloadsAllSchemesPositive(t *testing.T) {
	cfg := TitanV(4)
	schemes := []Scheme{NoOffload(), VDNN(), CDMAPlus(), GIST(), SFPROnly(),
		JPEGBase(JPEGBaseDefaultRatios()), JPEGAct(JPEGActDefaultRatios())}
	for _, w := range Workloads() {
		for _, s := range schemes {
			r := Simulate(w, s, cfg)
			if r.Forward <= 0 || r.Backward <= 0 {
				t.Fatalf("%s/%s: non-positive times %+v", w.Name, s.Name, r)
			}
			if r.Backward <= r.Forward*0.5 {
				t.Fatalf("%s/%s: backward %v implausibly short vs forward %v",
					w.Name, s.Name, r.Backward, r.Forward)
			}
		}
	}
}

// NoOffload is the ideal lower bound: compute only.
func NoOffload() Scheme {
	return Scheme{Name: "ideal", Ratio: one, CompressPasses: zero, DecompressPasses: zero}
}

// Overhead returns scheme s's slowdown versus the no-offload ideal.
func Overhead(w Workload, s Scheme, cfg Config) float64 {
	ideal := Simulate(w, NoOffload(), cfg).Total()
	return Simulate(w, s, cfg).Total() / ideal
}
