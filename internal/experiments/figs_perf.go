package experiments

import (
	"math"
	"strings"

	"jpegact/internal/compress"
	"jpegact/internal/gpusim"
	"jpegact/internal/hw"
	"jpegact/internal/quant"
)

func init() {
	register("fig18", "Accuracy loss vs relative speedup", runFig18)
	register("fig20", "Relative performance to vDNN per network", runFig20)
	register("fig21", "Performance vs CDU count at fixed compression ratios", runFig21)
	register("table4", "JPEG-ACT synthesis by component", runTable4)
	register("table5", "Design comparison: power, area, compression, offload", runTable5)
}

// perfSchemes returns the Fig. 18/20 scheme set.
func perfSchemes() []gpusim.Scheme {
	return []gpusim.Scheme{
		gpusim.CDMAPlus(),
		gpusim.GIST(),
		gpusim.SFPROnly(),
		gpusim.JPEGBase(gpusim.JPEGBaseDefaultRatios()),
		gpusim.JPEGAct(gpusim.JPEGActDefaultRatios()),
	}
}

func runFig18(o Options) *Result {
	res := &Result{
		ID:     "fig18",
		Title:  Title("fig18"),
		Header: []string{"method", "speedup vs vDNN", "accuracy change"},
		Notes: []string{
			"speedup: geometric mean over the CNR microbenchmarks (gpusim)",
			"accuracy change: functional training on the mini ResNet50 (train)",
			"JPEG-ACT variants dominate the frontier: more speedup per accuracy point (Fig. 18)",
		},
	}
	cfg := gpusim.TitanV(4)
	ws := gpusim.Workloads()

	type pt struct {
		scheme gpusim.Scheme
		method compress.Method
	}
	pts := []pt{
		{gpusim.CDMAPlus(), compress.CDMAPlus{}},
		{gpusim.GIST(), compress.GIST{}},
		{gpusim.SFPROnly(), compress.SFPROnly{}},
		{gpusim.JPEGBase(gpusim.JPEGBaseDefaultRatios()), compress.NewJPEGBase(quant.JPEGQuality(80))},
		{gpusim.JPEGAct(gpusim.JPEGActDefaultRatios()), compress.NewJPEGAct(quant.OptL5H())},
	}
	base := runOne(o, "ResNet50", compress.Baseline{})
	for _, p := range pts {
		// Geometric-mean speedup across workloads.
		prod := 1.0
		for _, w := range ws {
			prod *= gpusim.Relative(w, p.scheme, cfg)
		}
		speedup := pow(prod, 1/float64(len(ws)))
		rep := runOne(o, "ResNet50", p.method)
		res.Rows = append(res.Rows, []string{
			p.scheme.Name, f("%.2fx", speedup),
			f("%+.2f%%", 100*(rep.BestScore-base.BestScore)),
		})
	}
	return res
}

// workload returns the gpusim microbenchmark with the given name.
func workload(name string) gpusim.Workload {
	for _, w := range gpusim.Workloads() {
		if w.Name == name {
			return w
		}
	}
	panic("experiments: no gpusim workload " + name)
}

func pow(x, e float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Pow(x, e)
}

func runFig20(o Options) *Result {
	res := &Result{
		ID:     "fig20",
		Title:  Title("fig20"),
		Header: []string{"workload", "cDMA+", "GIST", "SFPR", "JPEG-BASE", "JPEG-ACT"},
		Notes: []string{
			"relative performance to vDNN on three-CNR-block microbenchmarks, batch 16",
			"VDSR's bars sit lowest: its low-compute-density kernels leave little offload to hide (§VI-D)",
		},
	}
	cfg := gpusim.TitanV(4)
	for _, w := range gpusim.Workloads() {
		row := []string{w.Name}
		for _, s := range perfSchemes() {
			row = append(row, f("%.2fx", gpusim.Relative(w, s, cfg)))
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

func runFig21(o Options) *Result {
	res := &Result{
		ID:     "fig21",
		Title:  Title("fig21"),
		Header: []string{"compression", "1 CDU", "2 CDU", "4 CDU", "8 CDU", "cache+DMA(4)"},
		Notes: []string{
			"runtime relative to the 1-CDU point at the same ratio (higher is faster)",
			"extra CDUs only pay at high ratios; the cache-side SFPR variant adds ≈1% (§VI-E)",
		},
	}
	w := workload("ResNet50")
	for _, ratio := range []float64{2, 4, 8, 12} {
		s := gpusim.Scheme{Name: "fixed", Offload: true, DMASide: true,
			Ratio: func(compress.Kind) float64 { return ratio }}
		s.CompressPasses = func(compress.Kind) float64 { return 0 }
		s.DecompressPasses = s.CompressPasses
		base := gpusim.Simulate(w, s, gpusim.TitanV(1)).Total()
		row := []string{f("%.0fx", ratio)}
		for _, n := range []int{1, 2, 4, 8} {
			t := gpusim.Simulate(w, s, gpusim.TitanV(n)).Total()
			row = append(row, f("%.2f", base/t))
		}
		cfg := gpusim.TitanV(4)
		cfg.CacheSideSFPR = true
		row = append(row, f("%.2f", base/gpusim.Simulate(w, s, cfg).Total()))
		res.Rows = append(res.Rows, row)
	}
	return res
}

func runTable4(o Options) *Result {
	res := &Result{
		ID:     "table4",
		Title:  Title("table4"),
		Header: []string{"component", "area (µm²)", "power (mW)"},
		Notes:  []string{"structural cost model calibrated to the paper's 15 nm synthesis (DESIGN.md substitution 5)"},
	}
	for _, c := range hw.TableIV() {
		res.Rows = append(res.Rows, []string{c.Name, f("%.0f", c.AreaUM2), f("%.1f", c.PowerMW)})
	}
	return res
}

func runTable5(o Options) *Result {
	res := &Result{
		ID:     "table5",
		Title:  Title("table5"),
		Header: []string{"design", "power (W)", "area (mm²)", "compression", "offload (GB/s)", "% GPU area", "% GPU power"},
		Notes:  []string{"4 CDUs plus buffers and collector/splitter; crossbar excluded (Table V)"},
	}
	for _, d := range hw.TableV() {
		af, pf := d.GPUFraction()
		res.Rows = append(res.Rows, []string{
			d.Name, f("%.2f", d.PowerW), f("%.2f", d.AreaMM2),
			f("%.1fx", d.Compression), f("%.1f", d.OffloadGBs),
			f("%.2f%%", 100*af), f("%.2f%%", 100*pf),
		})
	}
	return res
}

func init() {
	register("capacity", "GPU memory capacity sweep: stalls and fit per offload scheme", runCapacity)
}

func runCapacity(o Options) *Result {
	res := &Result{
		ID:     "capacity",
		Title:  Title("capacity"),
		Header: []string{"capacity (frac of acts)", "vDNN stall ms", "JPEG-ACT stall ms", "GIST fits"},
		Notes: []string{
			"ResNet50/IN microbenchmark under a shrinking GPU memory budget",
			"offloading (especially compressed) needs far less resident memory than GIST's in-GPU compression — the §I motivation for offload over GPU-memory compression",
		},
	}
	cfg := gpusim.TitanV(4)
	w := workload("ResNet50/IN")
	act := gpusim.JPEGAct(gpusim.JPEGActDefaultRatios())
	for _, frac := range []float64{1.0, 0.5, 0.25, 0.1} {
		capacity := w.TotalActBytes() * frac
		rv := gpusim.SimulateWithCapacity(w, gpusim.VDNN(), cfg, capacity)
		ra := gpusim.SimulateWithCapacity(w, act, cfg, capacity)
		rg := gpusim.SimulateWithCapacity(w, gpusim.GIST(), cfg, capacity)
		res.Rows = append(res.Rows, []string{
			f("%.2f", frac),
			f("%.2f", rv.StallSeconds*1e3),
			f("%.2f", ra.StallSeconds*1e3),
			f("%v", rg.FitsInMemory),
		})
	}
	return res
}

func init() {
	register("fig1a", "Forward-pass offload schedules (ASCII Gantt of the CNR stream overlap)", runFig1a)
}

func runFig1a(o Options) *Result {
	res := &Result{
		ID:     "fig1a",
		Title:  Title("fig1a"),
		Header: []string{"schedule ('#' compute, '=' memcpy, '.' idle; rows rendered below)"},
		Notes: []string{
			"vDNN: the memcpy stream saturates and stretches far past compute",
			"GIST: no memcpy, but compression kernels lengthen the compute stream",
			"JPEG-ACT: offloads hide almost entirely behind the kernels (Fig. 1a)",
		},
	}
	cfg := gpusim.TitanV(4)
	w := workload("ResNet50")
	for _, s := range []gpusim.Scheme{
		gpusim.VDNN(), gpusim.CDMAPlus(), gpusim.GIST(),
		gpusim.JPEGAct(gpusim.JPEGActDefaultRatios()),
	} {
		tr := gpusim.TraceForward(w, s, cfg)
		cu, mu := tr.Utilization()
		res.Rows = append(res.Rows, []string{
			f("%s  (makespan %.2f ms, compute util %.0f%%, memcpy util %.0f%%)",
				s.Name, tr.Makespan*1e3, cu*100, mu*100),
		})
		for _, line := range strings.Split(strings.TrimRight(tr.Render(72), "\n"), "\n") {
			res.Rows = append(res.Rows, []string{line})
		}
	}
	return res
}

func init() {
	register("tta", "Relative time-to-accuracy: training curve × simulated iteration time", runTTA)
}

// runTTA combines the functional training curves with the simulated
// per-iteration times — the paper's framing that "a reduction in the time
// it takes to train machine learning models can be translated into
// improvements in accuracy" (§I). Epochs-to-target comes from the mini
// training runs; seconds/iteration from gpusim on the ResNet50
// microbenchmark.
func runTTA(o Options) *Result {
	res := &Result{
		ID:     "tta",
		Title:  Title("tta"),
		Header: []string{"method", "epochs to target", "iter time (rel vDNN)", "time-to-accuracy (rel vDNN)"},
		Notes: []string{
			"target = baseline best accuracy − 0.05 on the mini ResNet50",
			"compressed offload wins on wall-clock even when it needs a comparable epoch count",
		},
	}
	cfg := gpusim.TitanV(4)
	w := workload("ResNet50")
	base := runOne(o, "ResNet50", compress.Baseline{})
	target := base.BestScore - 0.05
	vdnnIter := gpusim.Simulate(w, gpusim.VDNN(), cfg).Total()

	type cand struct {
		scheme gpusim.Scheme
		method compress.Method
	}
	cands := []cand{
		{gpusim.VDNN(), compress.Baseline{}},
		{gpusim.GIST(), compress.GIST{}},
		{gpusim.JPEGAct(gpusim.JPEGActDefaultRatios()), compress.NewJPEGAct(quant.OptL5H())},
	}
	var vdnnTTA float64
	for i, c := range cands {
		rep := runOne(o, "ResNet50", c.method)
		epochs := len(rep.Epochs) // did not reach target
		for _, e := range rep.Epochs {
			if e.Score >= target {
				epochs = e.Epoch + 1
				break
			}
		}
		iter := gpusim.Simulate(w, c.scheme, cfg).Total()
		tta := float64(epochs) * iter
		if i == 0 {
			vdnnTTA = tta
		}
		res.Rows = append(res.Rows, []string{
			c.scheme.Name,
			f("%d", epochs),
			f("%.2f", iter/vdnnIter),
			f("%.2f", tta/vdnnTTA),
		})
	}
	return res
}
