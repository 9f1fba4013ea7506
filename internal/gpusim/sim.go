package gpusim

import "jpegact/internal/compress"

// Scheme describes how one offload method uses the platform.
type Scheme struct {
	Name string
	// Offload transfers saved activations to CPU DRAM over PCIe.
	Offload bool
	// DMASide applies the CDU ingest constraint (compression hardware at
	// the DMA engine, Fig. 7b).
	DMASide bool
	// Ratio returns the compression ratio for an activation kind.
	Ratio func(compress.Kind) float64
	// CompressPasses/DecompressPasses are extra HBM round trips per
	// activation byte spent by GPU-kernel compression (GIST runs on the
	// SMs and steals compute-stream time instead of using PCIe).
	CompressPasses   func(compress.Kind) float64
	DecompressPasses func(compress.Kind) float64
}

func one(compress.Kind) float64  { return 1 }
func zero(compress.Kind) float64 { return 0 }

// VDNN offloads raw activations over PCIe with no compression.
func VDNN() Scheme {
	return Scheme{Name: "vDNN", Offload: true, Ratio: one, CompressPasses: zero, DecompressPasses: zero}
}

// CDMAPlus offloads with DMA-side ZVC: sparse kinds compress, dense conv
// does not (ratios from §VI-B / Rhu et al.).
func CDMAPlus() Scheme {
	return Scheme{
		Name: "cDMA+", Offload: true, DMASide: true,
		Ratio: func(k compress.Kind) float64 {
			switch k {
			case compress.KindReLUToConv, compress.KindReLUToOther:
				return 2.1
			case compress.KindPoolDropout:
				return 3.9
			default:
				return 1.0
			}
		},
		CompressPasses: zero, DecompressPasses: zero,
	}
}

// GIST compresses into GPU memory with SM kernels: no PCIe traffic, but
// the compression kernels occupy the compute stream. The dense2CSR
// non-zero scan costs several HBM passes — longer than a 1×1 conv kernel
// on bottleneck layers (§VI-D).
func GIST() Scheme {
	passes := func(k compress.Kind) float64 {
		switch k {
		case compress.KindReLUToConv, compress.KindPoolDropout:
			return 6 // DPR + cuSparse dense2CSR non-zero scan + gather
		case compress.KindReLUToOther:
			return 1 // BRC bit-pack
		default:
			return 3 // DPR cast + store round trip
		}
	}
	return Scheme{Name: "GIST", Ratio: one, CompressPasses: passes, DecompressPasses: passes}
}

// SFPROnly is the accelerator with only the SFPR stage: a fixed 4× ratio
// on every kind.
func SFPROnly() Scheme {
	return Scheme{
		Name: "SFPR", Offload: true, DMASide: true,
		Ratio:          func(compress.Kind) float64 { return 4 },
		CompressPasses: zero, DecompressPasses: zero,
	}
}

// Ratios maps activation kinds to compression ratios for the JPEG
// schemes; inject measured ratios from the functional simulation here.
type Ratios map[compress.Kind]float64

func (r Ratios) fn() func(compress.Kind) float64 {
	return func(k compress.Kind) float64 {
		if v, ok := r[k]; ok {
			return v
		}
		return 1
	}
}

// JPEGActDefaultRatios are the Table I-band ratios for JPEG-ACT/optL5H.
func JPEGActDefaultRatios() Ratios {
	return Ratios{
		compress.KindConv:        8.5,
		compress.KindReLUToConv:  6.4,
		compress.KindReLUToOther: 32,
		compress.KindPoolDropout: 6.4,
	}
}

// JPEGBaseDefaultRatios are the jpeg80 JPEG-BASE ratios.
func JPEGBaseDefaultRatios() Ratios {
	return Ratios{
		compress.KindConv:        5.8,
		compress.KindReLUToConv:  4,
		compress.KindReLUToOther: 32,
		compress.KindPoolDropout: 4,
	}
}

// JPEGAct is the full accelerator with the given per-kind ratios.
func JPEGAct(r Ratios) Scheme {
	return Scheme{Name: "JPEG-ACT", Offload: true, DMASide: true,
		Ratio: r.fn(), CompressPasses: zero, DecompressPasses: zero}
}

// JPEGBase is the stock-JPEG accelerator variant.
func JPEGBase(r Ratios) Scheme {
	return Scheme{Name: "JPEG-BASE", Offload: true, DMASide: true,
		Ratio: r.fn(), CompressPasses: zero, DecompressPasses: zero}
}

// Result holds simulated times in seconds.
type Result struct {
	Forward  float64
	Backward float64
}

// Total returns forward + backward time.
func (r Result) Total() float64 { return r.Forward + r.Backward }

// effRate returns the effective offload rate in uncompressed bytes/sec
// for an activation of the given kind: PCIe delivers compressed bytes
// (so ×ratio in uncompressed terms) and, for DMA-side schemes, the
// crossbar links into the CDUs bound the uncompressed ingest (§VI-E).
func effRate(cfg Config, s Scheme, k compress.Kind) float64 {
	rate := cfg.PCIeGBs * 1e9 * s.Ratio(k)
	if s.DMASide {
		if ingest := cfg.CDUIngestGBs() * 1e9; ingest < rate {
			rate = ingest
		}
	}
	return rate
}

// Simulate runs the two-stream schedule of Fig. 1a: kernels execute on
// the compute stream while activation offloads queue on the memcpy
// stream; an iteration ends when both streams drain. The backward pass
// mirrors it with prefetches that must land before each layer's backward
// kernel.
func Simulate(w Workload, s Scheme, cfg Config) Result {
	hbm := cfg.HBMBandwidthGBs * 1e9 * 0.8

	// Forward.
	var tCompute, offEnd float64
	for _, l := range w.Layers {
		tCompute += cfg.ComputeSeconds(l.FLOPs, l.MemBytes, l.Class)
		if l.ActBytes > 0 {
			tCompute += s.CompressPasses(l.Kind) * l.ActBytes / hbm
			if s.Offload {
				start := tCompute
				if offEnd > start {
					start = offEnd
				}
				offEnd = start + l.ActBytes/effRate(cfg, s, l.Kind)
			}
		}
	}
	fwd := tCompute
	if offEnd > fwd {
		fwd = offEnd
	}

	// Backward: activations are prefetched in reverse order on the
	// memcpy stream; each layer's backward kernel (≈2× forward work)
	// waits for its own fetch.
	var tBack, fetchEnd float64
	for i := len(w.Layers) - 1; i >= 0; i-- {
		l := w.Layers[i]
		if l.ActBytes > 0 && s.Offload {
			fetchEnd += l.ActBytes / effRate(cfg, s, l.Kind)
			if fetchEnd > tBack {
				tBack = fetchEnd
			}
		}
		tBack += 2 * cfg.ComputeSeconds(l.FLOPs, l.MemBytes, l.Class)
		if l.ActBytes > 0 {
			tBack += s.DecompressPasses(l.Kind) * l.ActBytes / hbm
		}
	}
	return Result{Forward: fwd, Backward: tBack}
}

// Relative returns the speedup of scheme s over vDNN on workload w.
func Relative(w Workload, s Scheme, cfg Config) float64 {
	base := Simulate(w, VDNN(), cfg).Total()
	return base / Simulate(w, s, cfg).Total()
}
