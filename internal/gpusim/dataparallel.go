package gpusim

// K-GPU data-parallel scaling model: each of k GPUs runs the full
// forward/backward schedule on 1/k of the step's microbatches, then the
// replicas exchange weight gradients over the host interconnect (PCIe
// in the paper's platform, Table V) before the synchronous update. The
// exchange is modelled as a ring all-reduce: each GPU moves
// 2·(k-1)/k · gradBytes over its PCIe link, compressed by the gradient
// codec's ratio. The model is intentionally simple — it predicts the
// shape of the measured scaling (bench/'s train.dp_scaling_efficiency
// beside gpusim.pred_dp2_speedup), not absolute times.

// DPConfig parameterizes the data-parallel scaling model.
type DPConfig struct {
	// GPUs is k, the replica count (≥ 1).
	GPUs int
	// GradBytes is the float32 weight-gradient footprint one replica
	// publishes per step.
	GradBytes float64
	// GradRatio is the gradient codec's compression ratio over the
	// exchange (1 = CodecGradRaw, the codec the trainer ships).
	GradRatio float64
	// Overlap is the fraction of the gradient exchange hidden behind
	// backward compute (clamped to [0, 1]). 0 models the serial
	// exchange — all gradients ship after backward finishes; with the
	// bucketed backward-overlapped exchange the tail-of-network buckets
	// ship while the head still differentiates, exposing only
	// (1-Overlap) of the wire time on the critical path.
	Overlap float64
	// HostCores caps the effective compute parallelism of the platform
	// hosting the replicas (0 = unlimited, i.e. every replica gets its
	// own device). On a host emulating k replicas with fewer cores, the
	// per-replica compute share divides by min(k, HostCores) instead of
	// k — the clamp that makes the prediction honest on a small machine.
	HostCores int
}

// DPResult is one simulated data-parallel step.
type DPResult struct {
	GPUs           int
	ComputeSeconds float64 // per-GPU forward+backward share
	ExchangeSec    float64 // ring all-reduce wire time (before overlap)
	ExposedSec     float64 // exchange time left on the critical path
	TotalSeconds   float64
	// Speedup is versus the same model at GPUs=1.
	Speedup float64
	// Efficiency is Speedup / GPUs.
	Efficiency float64
}

// SimulateDataParallel predicts one data-parallel training step of
// workload w under scheme s on k GPUs of the given platform. Compute
// (including the offload machinery of Simulate) divides by the
// effective parallelism — k, or min(k, HostCores) when the host caps
// it — while the gradient exchange grows with the ring term 2(k-1)/k
// and does not shrink; the overlap factor decides how much of it the
// backward pass hides. Speedup is therefore sublinear and monotone in
// dp.GradBytes.
func SimulateDataParallel(w Workload, s Scheme, cfg Config, dp DPConfig) DPResult {
	k := dp.GPUs
	if k < 1 {
		k = 1
	}
	ratio := dp.GradRatio
	if ratio <= 0 {
		ratio = 1
	}
	overlap := dp.Overlap
	if overlap < 0 {
		overlap = 0
	} else if overlap > 1 {
		overlap = 1
	}
	eff := k
	if dp.HostCores > 0 && dp.HostCores < eff {
		eff = dp.HostCores
	}
	stepCompute := Simulate(w, s, cfg).Total()

	perGPU := stepCompute / float64(eff)
	var exchange float64
	if k > 1 {
		wire := dp.GradBytes / ratio
		exchange = 2 * float64(k-1) / float64(k) * wire / (cfg.PCIeGBs * 1e9)
	}
	// Overlapped wire time hides under backward compute, but never below
	// the compute itself: the critical path is max(compute, hidden wire)
	// plus whatever stayed exposed.
	exposed := (1 - overlap) * exchange
	hidden := exchange - exposed
	critical := perGPU
	if hidden > critical {
		critical = hidden
	}
	total := critical + exposed
	res := DPResult{
		GPUs:           k,
		ComputeSeconds: perGPU,
		ExchangeSec:    exchange,
		ExposedSec:     exposed,
		TotalSeconds:   total,
		Speedup:        stepCompute / total,
	}
	res.Efficiency = res.Speedup / float64(k)
	return res
}
