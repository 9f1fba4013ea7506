package gpusim

import "testing"

// TestDataParallelScalingShape: speedup(1) = 1 exactly, speedup is
// sublinear (< k) whenever there is an exchange, monotone in k for a
// compute-dominated workload, and compression of the exchange helps.
func TestDataParallelScalingShape(t *testing.T) {
	w := Workloads()[0]
	cfg := TitanV(4)
	// ~1 MB of gradients against VGG's ~1.5 ms step keeps the sweep
	// compute-dominated, the regime where adding GPUs should win.
	dp := DPConfig{GradBytes: 1e6, GradRatio: 1}

	prev := 0.0
	for _, k := range []int{1, 2, 4, 8} {
		d := dp
		d.GPUs = k
		r := SimulateDataParallel(w, JPEGAct(JPEGActDefaultRatios()), cfg, d)
		if k == 1 {
			if r.Speedup != 1 {
				t.Fatalf("speedup(1) = %v, want exactly 1", r.Speedup)
			}
			if r.ExchangeSec != 0 {
				t.Fatalf("k=1 pays exchange time %v", r.ExchangeSec)
			}
		} else {
			if r.Speedup >= float64(k) {
				t.Fatalf("k=%d speedup %v is not sublinear", k, r.Speedup)
			}
			if r.Speedup <= prev {
				t.Fatalf("k=%d speedup %v not above k/2's %v for this compute-bound workload", k, r.Speedup, prev)
			}
			if r.Efficiency >= 1 || r.Efficiency <= 0 {
				t.Fatalf("k=%d efficiency %v out of (0,1)", k, r.Efficiency)
			}
		}
		prev = r.Speedup
	}
}

// TestDataParallelCompressionHelps: a compressed gradient exchange must
// strictly beat the raw one at the same k, and a zero-size gradient
// must give the ideal compute-only split.
func TestDataParallelCompressionHelps(t *testing.T) {
	w := Workloads()[0]
	cfg := TitanV(4)
	raw := SimulateDataParallel(w, VDNN(), cfg, DPConfig{GPUs: 4, GradBytes: 500e6, GradRatio: 1})
	comp := SimulateDataParallel(w, VDNN(), cfg, DPConfig{GPUs: 4, GradBytes: 500e6, GradRatio: 4})
	if comp.TotalSeconds >= raw.TotalSeconds {
		t.Fatalf("4x gradient compression did not reduce step time: %v vs %v", comp.TotalSeconds, raw.TotalSeconds)
	}
	ideal := SimulateDataParallel(w, VDNN(), cfg, DPConfig{GPUs: 4, GradBytes: 0})
	if ideal.ExchangeSec != 0 {
		t.Fatalf("zero gradient bytes still pays exchange %v", ideal.ExchangeSec)
	}
	if got, want := ideal.ComputeSeconds*4, Simulate(w, VDNN(), cfg).Total(); got < want*0.999 || got > want*1.001 {
		t.Fatalf("k=4 compute share %v, want quarter of %v", ideal.ComputeSeconds, want)
	}
}
