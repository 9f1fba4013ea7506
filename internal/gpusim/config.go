// Package gpusim is an analytic/discrete-event performance model of the
// paper's evaluation platform (DESIGN.md substitution 4): an NVIDIA
// Titan V-class GPU with HBM, a crossbar interconnect, a PCIe 3.0 DMA
// engine to CPU DRAM, and optional Compression/Decompression Units at the
// DMA (Fig. 7). It executes forward/backward offload schedules for vDNN,
// cDMA+, GIST and JPEG-ACT over CNR-block microbenchmarks (Fig. 1a) and
// reports runtimes relative to vDNN (Figs. 18, 20, 21).
package gpusim

import "jpegact/internal/accel"

// Config describes the simulated platform. The defaults model the
// paper's setup (§V): Titan V boost clocks, 40 SMs, 32 B/cycle crossbar
// links, 850 MHz HBM, PCIe 3.0 at 12.8 GB/s effective.
type Config struct {
	NumSM           int
	SMClockGHz      float64
	PeakTFLOPS      float64 // fp32 peak across all SMs
	HBMBandwidthGBs float64
	PCIeGBs         float64 // effective host-transfer rate
	ICClockGHz      float64 // interconnect/crossbar clock
	CrossbarBytes   float64 // bytes per cycle per crossbar link
	NumCDU          int     // compression units at the DMA
	CDUBlockCycles  float64 // cycles per 8×8 block load/store per CDU (accel.CyclesPerBlockLoad)
	// CacheSideSFPR models the combined cache-/DMA-side design of §VI-E:
	// SFPR at every L2 partition compresses traffic 4× before it crosses
	// the interconnect, quadrupling the effective CDU ingest rate.
	CacheSideSFPR bool
}

// TitanV returns the paper's platform configuration with n CDUs.
func TitanV(n int) Config {
	return Config{
		NumSM:           40,
		SMClockGHz:      1.455,
		PeakTFLOPS:      14.9,
		HBMBandwidthGBs: 650,
		PCIeGBs:         12.8,
		ICClockGHz:      1.455,
		CrossbarBytes:   32,
		NumCDU:          n,
		CDUBlockCycles:  accel.CyclesPerBlockLoad,
	}
}

// CDUIngestGBs returns the rate at which uncompressed activation bytes
// can be pulled from GPU memory into the CDUs: one 256 B block (64 fp32
// values) per CDUBlockCycles per CDU, i.e. 32 B/cycle/CDU at the
// interconnect clock — the crossbar-link bound of §III-G.
func (c Config) CDUIngestGBs() float64 {
	if c.NumCDU <= 0 {
		return 0
	}
	rate := float64(c.NumCDU) * c.CrossbarBytes * c.ICClockGHz // GB/s
	if c.CacheSideSFPR {
		// Traffic already 4× compressed when it crosses the interconnect.
		rate *= 4
	}
	return rate
}

// KernelClass captures the efficiency of a kernel type on the SMs.
type KernelClass int

const (
	// KernelWinograd is a 3×3 convolution via Winograd (high efficiency).
	KernelWinograd KernelClass = iota
	// KernelGEMM is a 1×1 convolution via implicit GEMM.
	KernelGEMM
	// KernelElementwise is a memory-bound elementwise op (BN, ReLU, sum).
	KernelElementwise
	// KernelLowDensity models VDSR's few-channel large-plane convolutions
	// that cuDNN serves with low-compute-density kernels (§VI-D).
	KernelLowDensity
)

// utilization is the fraction of peak FLOPS each class achieves.
func (k KernelClass) utilization() float64 {
	switch k {
	case KernelWinograd:
		return 0.55
	case KernelGEMM:
		return 0.35
	case KernelLowDensity:
		return 0.12
	default:
		return 0 // elementwise is memory-bound, not FLOP-bound
	}
}

// ComputeSeconds returns the SM time of a layer with the given FLOPs and
// HBM traffic, taking the max of the compute-bound and memory-bound
// estimates (simple roofline).
func (c Config) ComputeSeconds(flops, memBytes float64, class KernelClass) float64 {
	var tc float64
	if u := class.utilization(); u > 0 {
		tc = flops / (c.PeakTFLOPS * 1e12 * u)
	}
	tm := memBytes / (c.HBMBandwidthGBs * 1e9 * 0.8)
	if tm > tc {
		return tm
	}
	return tc
}
