package gpusim

import (
	"math"
	"testing"
)

// allSchemes is every scheme the experiments run.
func allSchemes() []Scheme {
	return []Scheme{
		VDNN(), CDMAPlus(), GIST(), SFPROnly(),
		JPEGBase(JPEGBaseDefaultRatios()), JPEGAct(JPEGActDefaultRatios()),
	}
}

func TestCapacityUnconstrainedMatchesBase(t *testing.T) {
	cfg := TitanV(4)
	for _, w := range Workloads() {
		for _, s := range allSchemes() {
			r := SimulateWithCapacity(w, s, cfg, math.Inf(1))
			if r.StallSeconds != 0 || !r.FitsInMemory {
				t.Fatalf("%s/%s: stall %v, fits %v with unlimited memory", w.Name, s.Name, r.StallSeconds, r.FitsInMemory)
			}
			if base := Simulate(w, s, cfg); r.Result != base {
				t.Fatalf("%s/%s: %+v vs base %+v", w.Name, s.Name, r.Result, base)
			}
		}
	}
}

func TestGISTResidentIsCompressedFootprint(t *testing.T) {
	// GIST never offloads, so with room to spare its peak is every saved
	// activation at its own ratio, and the ratio is the scheme's.
	s := GIST()
	for _, w := range Workloads() {
		var want float64
		for _, l := range w.Layers {
			if l.ActBytes > 0 {
				want += l.ActBytes / s.Ratio(l.Kind)
			}
		}
		got := SimulateWithCapacity(w, s, TitanV(4), math.Inf(1)).PeakResident
		if got != want || got >= w.TotalActBytes()/2 {
			t.Fatalf("%s: peak resident %v, want %v (fp32 %v)", w.Name, got, want, w.TotalActBytes())
		}
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
