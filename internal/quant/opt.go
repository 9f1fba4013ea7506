package quant

// Optimized DQTs for CNN activation compression (§IV). These are the
// shipped outputs of the optimization procedure in internal/dqtopt run on
// activations of a partially-trained ResNet generator network: compared to
// the perceptual image tables they are much flatter across frequency
// (CNN activations carry significant mid/high-frequency information,
// Fig. 2) and pin the DC entry to 8 to keep batch-norm statistics stable.
//
// OptL  (α = 0.025): low-compression / low-error table, used for the
// critical first epochs of training.
// OptH  (α = 0.005): high-compression table for the remainder.
// OptL5H: the piece-wise schedule that switches from OptL to OptH after
// epoch 5 (Fig. 17), the configuration the paper ships as JPEG-ACT.

// optProfile builds a flat, gently tilted table: DC pinned to dc, AC
// entries ramping from lo at the lowest frequencies to hi at the highest
// (Manhattan frequency distance used as the ramp coordinate).
func optProfile(name string, dc, lo, hi float64) DQT {
	var d DQT
	d.Name = name
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			i := r*8 + c
			if i == 0 {
				d.Entries[0] = dc
				continue
			}
			f := float64(r+c) / 14 // 0..1 across frequency
			d.Entries[i] = lo + float64((hi-lo)*f)
		}
	}
	return d
}

// OptL returns the low-compression optimized DQT.
func OptL() DQT { return optProfile("optL", 8, 2, 6) }

// OptH returns the high-compression optimized DQT.
func OptH() DQT { return optProfile("optH", 8, 12, 28) }

// Schedule selects a DQT per training epoch, implementing the piece-wise
// DQT of §IV. A single-table schedule always returns that table.
type Schedule struct {
	Name     string
	Early    DQT
	Late     DQT
	SwitchAt int // first epoch (0-based) that uses Late
}

// Fixed returns a schedule that uses d for all epochs.
func Fixed(d DQT) Schedule {
	return Schedule{Name: d.Name, Early: d, Late: d, SwitchAt: 0}
}

// OptL5H returns the piece-wise schedule: OptL for the first five epochs,
// OptH afterwards.
func OptL5H() Schedule {
	return Schedule{Name: "optL5H", Early: OptL(), Late: OptH(), SwitchAt: 5}
}

// For returns the DQT in effect at the given 0-based epoch.
func (s *Schedule) For(epoch int) *DQT {
	if epoch < s.SwitchAt {
		return &s.Early
	}
	return &s.Late
}
