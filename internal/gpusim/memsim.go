package gpusim

// Memory-capacity-constrained scheduling: the forward pass holds every
// produced activation in GPU memory until its offload completes (vDNN's
// memory-release discipline), so a small GPU memory forces compute to
// stall behind the offload queue. GIST, which compresses *into* GPU
// memory instead of offloading, keeps its compressed activations resident
// for the whole pass — the "still limited by the amount of GPU memory"
// property the paper calls out (§I).

// MemResult extends Result with residency accounting.
type MemResult struct {
	Result
	StallSeconds float64 // compute time lost waiting for memory
	PeakResident float64 // bytes resident at the worst moment
	FitsInMemory bool    // residency never exceeded capacity
}

// SimulateWithCapacity runs the forward schedule under a GPU memory
// capacity (bytes). Backward is taken from the unconstrained model (the
// backward pass frees as it consumes, so capacity binds far less there).
func SimulateWithCapacity(w Workload, s Scheme, cfg Config, capacity float64) MemResult {
	type pending struct {
		done  float64 // offload completion time
		bytes float64 // resident bytes freed at completion
	}
	var queue []pending
	var resident, peak float64
	var tCompute, offEnd, stall float64
	hbm := cfg.HBMBandwidthGBs * 1e9 * 0.8
	fits := true

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

	for _, l := range w.Layers {
		tCompute += cfg.ComputeSeconds(l.FLOPs, l.MemBytes, l.Class)
		if l.ActBytes <= 0 {
			continue
		}
		if s.Offload {
			kept := l.ActBytes // resident until offloaded
			free(tCompute)
			// Stall until there is room for the new activation.
			for resident+kept > capacity && len(queue) > 0 {
				next := queue[0].done
				for _, p := range queue {
					if p.done < next {
						next = p.done
					}
				}
				if next > tCompute {
					stall += next - tCompute
					tCompute = next
				}
				free(tCompute)
			}
			if resident+kept > capacity {
				fits = false // nothing left to free: the model cannot run
			}
			resident += kept
			if resident > peak {
				peak = resident
			}
			start := tCompute
			if offEnd > start {
				start = offEnd
			}
			offEnd = start + l.ActBytes/effRate(cfg, s, l.Kind)
			queue = append(queue, pending{done: offEnd, bytes: kept})
		} else {
			// GPU-resident compression (GIST): compressed bytes stay for
			// the whole forward pass.
			tCompute += s.CompressPasses(l.Kind) * l.ActBytes / hbm
			resident += l.ActBytes / s.Ratio(l.Kind)
			if resident > peak {
				peak = resident
			}
			if resident > capacity {
				fits = false
			}
		}
	}
	fwd := tCompute
	if s.Offload && offEnd > fwd {
		fwd = offEnd
	}
	base := Simulate(w, s, cfg)
	return MemResult{
		Result:       Result{Forward: fwd, Backward: base.Backward},
		StallSeconds: stall,
		PeakResident: peak,
		FitsInMemory: fits,
	}
}
