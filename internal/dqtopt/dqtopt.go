// Package dqtopt implements the DQT optimization procedure of §IV
// (Fig. 9): starting from a seed table, minimize
//
//	O = (1-α)·λ₁·H + α·λ₂·L2            (Eqn. 12)
//
// over the 64 DQT entries by SGD with forward finite differences, where H
// is the Shannon entropy of the quantized coefficients (Eqn. 11) and L2
// is the average recovered-activation error (Eqn. 10). α trades rate for
// distortion: α = 0.025 yields the low-compression optL table, α = 0.005
// the high-compression optH table. The first DQT entry (the block mean)
// is pinned to 8 to keep batch-normalization statistics stable.
package dqtopt

import (
	"math"

	"jpegact/internal/compress"
	"jpegact/internal/entropy"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
)

// Lambda1 and Lambda2 are the normalizing scale factors of Eqn. 12.
const (
	Lambda1 = 10
	Lambda2 = 10000
)

// The paper's SGD settings (§IV): learning rate and forward
// finite-difference step.
const (
	learnRate = 2.0
	diffStep  = 5
)

// Config parameterizes the optimizer.
type Config struct {
	Alpha float64 // rate/distortion trade-off (Eqn. 12)
	Iters int     // optimization steps
	// Grouped optimizes the 15 anti-diagonal frequency groups instead of
	// all 63 AC entries, cutting objective evaluations ~4× per step.
	Grouped bool
	S       float64 // SFPR scale (default sfpr.DefaultS via Pipeline)
}

func (c Config) withDefaults() Config {
	if c.Iters == 0 {
		c.Iters = 10
	}
	return c
}

// Point is one objective evaluation: entropy (bits/value), L2 error and
// the combined objective.
type Point struct {
	Entropy float64
	L2      float64
	O       float64
}

// Evaluate computes the (H, L2, O) point of a DQT on the sample
// activations using the DIV pipeline (optimization runs on the exact
// divisors; deployment snaps them to powers of two for SH).
func Evaluate(d quant.DQT, samples []*tensor.Tensor, alpha, s float64) Point {
	var allQ []int8
	var l2Sum float64
	p := compress.Pipeline{DQT: d, S: s}
	for _, x := range samples {
		blocks, scales, info := p.QuantizeBlocks(x)
		for i := range blocks {
			allQ = append(allQ, blocks[i][:]...)
		}
		rec := p.ReconstructBlocks(blocks, scales, info)
		l2Sum += tensor.L2Error(x, rec)
	}
	h := entropy.Shannon(allQ)
	l2 := l2Sum / float64(len(samples))
	return Point{
		Entropy: h,
		L2:      l2,
		O:       float64((1-alpha)*Lambda1*h) + float64(alpha*Lambda2*l2),
	}
}

// Result is the outcome of an optimization run.
type Result struct {
	DQT   quant.DQT
	Trace []Point // objective after each iteration (index 0 = seed)
}

// Optimize minimizes the objective starting from seed.
func Optimize(seed quant.DQT, samples []*tensor.Tensor, cfg Config) Result {
	cfg = cfg.withDefaults()
	d := seed
	d.Entries[0] = 8 // pin the mean coefficient (§IV)

	res := Result{Trace: []Point{Evaluate(d, samples, cfg.Alpha, cfg.S)}}
	groups := entryGroups(cfg.Grouped)

	for it := 0; it < cfg.Iters; it++ {
		base := res.Trace[len(res.Trace)-1]
		grad := make([]float64, len(groups))
		for gi, g := range groups {
			probe := d
			for _, i := range g {
				probe.Entries[i] = clampEntry(probe.Entries[i] + diffStep)
			}
			p := Evaluate(probe, samples, cfg.Alpha, cfg.S)
			grad[gi] = (p.O - base.O) / diffStep
		}
		for gi, g := range groups {
			step := learnRate * grad[gi]
			for _, i := range g {
				d.Entries[i] = clampEntry(d.Entries[i] - step)
			}
		}
		d.Entries[0] = 8
		res.Trace = append(res.Trace, Evaluate(d, samples, cfg.Alpha, cfg.S))
	}
	res.DQT = d
	return res
}

func clampEntry(v float64) float64 {
	if v < 1 {
		return 1
	}
	if v > 255 {
		return 255
	}
	return v
}

// entryGroups returns either each AC entry alone, or the 15 anti-diagonal
// groups (entries sharing r+c), excluding the pinned DC entry.
func entryGroups(grouped bool) [][]int {
	if !grouped {
		out := make([][]int, 0, 63)
		for i := 1; i < 64; i++ {
			out = append(out, []int{i})
		}
		return out
	}
	byDiag := map[int][]int{}
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			if r == 0 && c == 0 {
				continue
			}
			byDiag[r+c] = append(byDiag[r+c], r*8+c)
		}
	}
	out := make([][]int, 0, 14)
	for diag := 0; diag <= 14; diag++ {
		if g, ok := byDiag[diag]; ok {
			out = append(out, g)
		}
	}
	return out
}

// RateDistortion evaluates a set of DQTs plus k-bit SFPR points, the data
// behind Fig. 16. SFPR at k bits is modelled by re-quantizing the int8
// codes to k bits, giving an entropy of at most k bits/value.
type RDPoint struct {
	Name    string
	Entropy float64
	L2      float64
}

// RateDistortion computes the curve for the given tables and SFPR bit
// widths on the sample activations.
func RateDistortion(samples []*tensor.Tensor, tables []quant.DQT, sfprBits []uint, s float64) []RDPoint {
	var out []RDPoint
	for _, d := range tables {
		p := Evaluate(d, samples, 0, s)
		out = append(out, RDPoint{Name: d.Name, Entropy: p.Entropy, L2: p.L2})
	}
	for _, bits := range sfprBits {
		var allQ []int8
		var l2Sum float64
		for _, x := range samples {
			rec, q := sfprKBits(x, bits, s)
			allQ = append(allQ, q...)
			l2Sum += tensor.L2Error(x, rec)
		}
		out = append(out, RDPoint{
			Name:    sfprName(bits),
			Entropy: entropy.Shannon(allQ),
			L2:      l2Sum / float64(len(samples)),
		})
	}
	return out
}

func sfprName(bits uint) string {
	return "SFPR-" + string(rune('0'+bits)) + "bit"
}

// sfprKBits applies SFPR but keeps only the top k bits of each code.
func sfprKBits(x *tensor.Tensor, bits uint, s float64) (*tensor.Tensor, []int8) {
	if s == 0 {
		s = 1.125
	}
	shift := uint(8 - bits)
	c := compressSFPR(x, s)
	for i, v := range c {
		c[i] = int8((int32(v) >> shift) << shift)
	}
	rec := tensor.New(x.Shape.N, x.Shape.C, x.Shape.H, x.Shape.W)
	scales := channelScales(x, s)
	dequant(c, scales, rec)
	return rec, c
}

func compressSFPR(x *tensor.Tensor, s float64) []int8 {
	scales := channelScales(x, s)
	vals := make([]int8, x.Elems())
	quantize(x, scales, vals)
	return vals
}

func channelScales(x *tensor.Tensor, s float64) []float32 {
	maxes := x.ChannelMaxAbs()
	scales := make([]float32, len(maxes))
	for c, m := range maxes {
		if m > 0 {
			scales[c] = float32(s / float64(m))
		}
	}
	return scales
}

func quantize(x *tensor.Tensor, scales []float32, vals []int8) {
	sh := x.Shape
	hw := sh.H * sh.W
	for n := 0; n < sh.N; n++ {
		for c := 0; c < sh.C; c++ {
			sc := float64(scales[c]) * 128
			base := (n*sh.C + c) * hw
			for i := 0; i < hw; i++ {
				q := math.Round(float64(x.Data[base+i]) * sc)
				if q > 127 {
					q = 127
				}
				if q < -128 {
					q = -128
				}
				vals[base+i] = int8(q)
			}
		}
	}
}

func dequant(vals []int8, scales []float32, x *tensor.Tensor) {
	sh := x.Shape
	hw := sh.H * sh.W
	for n := 0; n < sh.N; n++ {
		for c := 0; c < sh.C; c++ {
			var inv float32
			if scales[c] != 0 {
				inv = 1 / (scales[c] * 128)
			}
			base := (n*sh.C + c) * hw
			for i := 0; i < hw; i++ {
				x.Data[base+i] = float32(vals[base+i]) * inv
			}
		}
	}
}
