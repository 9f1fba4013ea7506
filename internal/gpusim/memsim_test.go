package gpusim

import "testing"

func TestCapacityUnconstrainedMatchesBase(t *testing.T) {
	cfg := TitanV(4)
	w := findWorkload(t, "ResNet50/IN")
	s := JPEGAct(JPEGActDefaultRatios())
	r := SimulateWithCapacity(w, s, cfg, 1e18)
	base := Simulate(w, s, cfg)
	if r.StallSeconds != 0 {
		t.Fatalf("stalls %v with unlimited memory", r.StallSeconds)
	}
	if !r.FitsInMemory {
		t.Fatal("must fit")
	}
	if diff := r.Forward - base.Forward; diff < -1e-12 || diff > 1e-12 {
		t.Fatalf("forward %v vs base %v", r.Forward, base.Forward)
	}
}

func TestTightCapacityStallsVDNN(t *testing.T) {
	cfg := TitanV(4)
	w := findWorkload(t, "ResNet50/IN")
	// Capacity of two largest activations: vDNN must stall behind PCIe.
	capacity := w.TotalActBytes() / 4
	r := SimulateWithCapacity(w, VDNN(), cfg, capacity)
	if r.StallSeconds <= 0 {
		t.Fatal("vDNN should stall under tight memory")
	}
	// vDNN's forward end is the offload tail either way (PCIe-bound), so
	// the stall shows as lost compute time, never as a faster run.
	free := SimulateWithCapacity(w, VDNN(), cfg, 1e18)
	if r.Forward < free.Forward {
		t.Fatal("constrained run cannot be faster")
	}
}

func TestCompressionLowersMinCapacity(t *testing.T) {
	// With compression, offloads drain faster, so less memory is needed
	// to run stall-free.
	cfg := TitanV(4)
	w := findWorkload(t, "ResNet50")
	vdnn := MinCapacity(w, VDNN(), cfg)
	act := MinCapacity(w, JPEGAct(JPEGActDefaultRatios()), cfg)
	if act >= vdnn {
		t.Fatalf("JPEG-ACT min capacity %v should be below vDNN %v", act, vdnn)
	}
}

func TestGISTResidencyGrows(t *testing.T) {
	// GIST keeps compressed activations in GPU memory: peak residency is
	// the sum of compressed sizes, and a capacity below that cannot run.
	cfg := TitanV(4)
	w := findWorkload(t, "ResNet50/IN")
	r := SimulateWithCapacity(w, GIST(), cfg, 1e18)
	if r.PeakResident <= 0 {
		t.Fatal("no residency tracked")
	}
	small := SimulateWithCapacity(w, GIST(), cfg, r.PeakResident/2)
	if small.FitsInMemory {
		t.Fatal("GIST must not fit below its compressed footprint")
	}
	// JPEG-ACT with the same capacity does fit: offloading drains memory.
	act := SimulateWithCapacity(w, JPEGAct(JPEGActDefaultRatios()), cfg, r.PeakResident/2)
	if !act.FitsInMemory {
		t.Fatal("JPEG-ACT should fit where GIST cannot")
	}
}

func TestStallGrowsAsCapacityShrinks(t *testing.T) {
	cfg := TitanV(4)
	w := findWorkload(t, "ResNet50/IN")
	prev := -1.0
	for _, frac := range []float64{1, 0.5, 0.25, 0.15} {
		r := SimulateWithCapacity(w, VDNN(), cfg, w.TotalActBytes()*frac)
		if prev >= 0 && r.StallSeconds < prev-1e-12 {
			t.Fatalf("stall not monotone: %v then %v at frac %v", prev, r.StallSeconds, frac)
		}
		prev = r.StallSeconds
	}
}

// MinCapacity returns the smallest GPU memory (bytes) at which the
// forward pass of w under s incurs no memory stalls, found by bisection.
func MinCapacity(w Workload, s Scheme, cfg Config) float64 {
	lo, hi := 0.0, w.TotalActBytes()+1
	for i := 0; i < 50; i++ {
		mid := (lo + hi) / 2
		r := SimulateWithCapacity(w, s, cfg, mid)
		if r.StallSeconds > 0 || !r.FitsInMemory {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}
