package gpusim

import (
	"math"

	"jpegact/internal/compress"
)

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

// Ratios maps activation kinds to compression ratios; a kind it does not
// name is stored uncompressed. Every scheme states its own, and the JPEG
// schemes take theirs as an argument so measured ratios from the
// functional simulation can be injected.
type Ratios map[compress.Kind]float64

func (r Ratios) fn() func(compress.Kind) float64 {
	return func(k compress.Kind) float64 {
		if v, ok := r[k]; ok {
			return v
		}
		return 1
	}
}

// CDMAPlus offloads with DMA-side ZVC: sparse kinds compress, dense conv
// does not (ratios from §VI-B / Rhu et al.).
func CDMAPlus() Scheme {
	return Scheme{
		Name: "cDMA+", Offload: true, DMASide: true,
		Ratio: Ratios{
			compress.KindReLUToConv:  2.1,
			compress.KindReLUToOther: 2.1,
			compress.KindPoolDropout: 3.9,
		}.fn(),
		CompressPasses: zero, DecompressPasses: zero,
	}
}

// GIST compresses into GPU memory with SM kernels: no PCIe traffic, but
// the compression kernels occupy the compute stream. The dense2CSR
// non-zero scan costs several HBM passes — longer than a 1×1 conv kernel
// on bottleneck layers (§VI-D). Its ratios (8-bit DPR dense, DPR+CSR
// sparse, BRC masks) decide only what stays resident.
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
	return Scheme{
		Name: "GIST",
		Ratio: Ratios{
			compress.KindConv:        4,
			compress.KindReLUToConv:  2.2,
			compress.KindReLUToOther: 32,
			compress.KindPoolDropout: 2.2,
		}.fn(),
		CompressPasses: passes, DecompressPasses: passes,
	}
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

// MemResult extends Result with the forward pass's residency accounting.
type MemResult struct {
	Result
	StallSeconds float64 // compute time lost waiting for memory
	PeakResident float64 // bytes resident at the worst moment
	FitsInMemory bool    // residency never exceeded capacity
}

// schedule is the one walk of the two-stream schedule of Fig. 1a; every
// other entry point of the package is a view of it. Forward: kernels run
// on the compute stream while activation offloads queue on the memcpy
// stream, and the pass ends when both streams drain. An offloaded
// activation stays resident until its offload completes (vDNN's
// memory-release discipline), so a capacity below what is in flight
// stalls compute behind the offload queue; a scheme that compresses into
// GPU memory instead (GIST) pays its kernels on the compute stream and
// keeps ActBytes/Ratio resident for the whole pass — the "still limited
// by the amount of GPU memory" property of §I. Backward mirrors it:
// activations are prefetched in reverse order on the memcpy stream, and
// each layer's backward kernel (≈2× forward work) waits for its own
// fetch. It frees as it consumes, so capacity binds forward only.
//
// emit, when non-nil, receives every interval on either stream in issue
// order; times count from the start of the event's own pass.
func schedule(w Workload, s Scheme, cfg Config, capacity float64, emit func(Event)) MemResult {
	if emit == nil {
		emit = func(Event) {}
	}
	hbm := cfg.HBMBandwidthGBs * 1e9 * 0.8
	res := MemResult{FitsInMemory: true}

	type pending struct {
		done  float64 // offload completion time
		bytes float64 // resident bytes freed at completion
	}
	var queue []pending
	var resident float64
	free := func(now float64) {
		i := 0
		for _, p := range queue {
			if p.done <= now {
				resident -= p.bytes
				continue
			}
			queue[i] = p
			i++
		}
		queue = queue[:i]
	}
	hold := func(bytes float64) {
		resident += bytes
		if resident > res.PeakResident {
			res.PeakResident = resident
		}
		if resident > capacity {
			res.FitsInMemory = false
		}
	}

	var tCompute, offEnd float64
	for _, l := range w.Layers {
		dur := cfg.ComputeSeconds(l.FLOPs, l.MemBytes, l.Class)
		emit(Event{StreamCompute, l.Name, tCompute, tCompute + dur, false})
		tCompute += dur
		if l.ActBytes <= 0 {
			continue
		}
		if passes := s.CompressPasses(l.Kind); passes > 0 {
			dur := passes * l.ActBytes / hbm
			emit(Event{StreamCompute, l.Name + ".compress", tCompute, tCompute + dur, false})
			tCompute += dur
		}
		if !s.Offload {
			hold(l.ActBytes / s.Ratio(l.Kind))
			continue
		}
		// Stall until the offloads in flight have made room; with
		// nothing left to free the model cannot run at this capacity.
		free(tCompute)
		for resident+l.ActBytes > capacity && len(queue) > 0 {
			next := queue[0].done
			for _, p := range queue {
				if p.done < next {
					next = p.done
				}
			}
			if next > tCompute {
				res.StallSeconds += next - tCompute
				tCompute = next
			}
			free(tCompute)
		}
		hold(l.ActBytes)
		start := tCompute
		if offEnd > start {
			start = offEnd
		}
		offEnd = start + l.ActBytes/effRate(cfg, s, l.Kind)
		emit(Event{StreamMemcpy, l.Name + ".offload", start, offEnd, false})
		queue = append(queue, pending{done: offEnd, bytes: l.ActBytes})
	}
	res.Forward = tCompute
	if offEnd > res.Forward {
		res.Forward = offEnd
	}

	var tBack, fetchEnd float64
	for i := len(w.Layers) - 1; i >= 0; i-- {
		l := w.Layers[i]
		if l.ActBytes > 0 && s.Offload {
			start := fetchEnd
			fetchEnd += l.ActBytes / effRate(cfg, s, l.Kind)
			emit(Event{StreamMemcpy, l.Name + ".prefetch", start, fetchEnd, true})
			if fetchEnd > tBack {
				tBack = fetchEnd
			}
		}
		dur := 2 * cfg.ComputeSeconds(l.FLOPs, l.MemBytes, l.Class)
		emit(Event{StreamCompute, l.Name + ".grad", tBack, tBack + dur, true})
		tBack += dur
		if l.ActBytes <= 0 {
			continue
		}
		if passes := s.DecompressPasses(l.Kind); passes > 0 {
			dur := passes * l.ActBytes / hbm
			emit(Event{StreamCompute, l.Name + ".decompress", tBack, tBack + dur, true})
			tBack += dur
		}
	}
	res.Backward = tBack
	return res
}

// Simulate returns the forward and backward times of w under s with
// unlimited GPU memory.
func Simulate(w Workload, s Scheme, cfg Config) Result {
	return schedule(w, s, cfg, math.Inf(1), nil).Result
}

// SimulateWithCapacity runs the same schedule under a GPU memory
// capacity in bytes.
func SimulateWithCapacity(w Workload, s Scheme, cfg Config, capacity float64) MemResult {
	return schedule(w, s, cfg, capacity, nil)
}

// Relative returns the speedup of scheme s over vDNN on workload w.
func Relative(w Workload, s Scheme, cfg Config) float64 {
	base := Simulate(w, VDNN(), cfg).Total()
	return base / Simulate(w, s, cfg).Total()
}
