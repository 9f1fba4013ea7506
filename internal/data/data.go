// Package data provides the synthetic datasets that substitute for
// CIFAR10, ImageNet and Div2k in this offline reproduction (see DESIGN.md,
// substitution 2). The generators are built to preserve the property the
// paper exploits: natural-image-like spatial correlation (a falling 1/f
// spectrum), so that DCT energy compaction — and hence JPEG-ACT's
// compression advantage — actually appears in the activations.
package data

import (
	"math"

	"jpegact/internal/parallel"
	"jpegact/internal/tensor"
)

// Texture fills a (1,1,h,w) plane with a smoothed Gaussian random field:
// white noise convolved `passes` times with the separable binomial kernel
// [1 2 1]/4, then renormalized to zero mean and unit variance. More passes
// mean stronger spatial correlation.
func Texture(r *tensor.RNG, h, w, passes int) []float32 {
	plane := make([]float32, h*w)
	texture(r, plane, h, w, passes)
	return plane
}

// texture is Texture into a caller's plane.
func texture(r *tensor.RNG, plane []float32, h, w, passes int) {
	for i := range plane {
		plane[i] = float32(r.Norm())
	}
	Smooth(plane, h, w, passes)
	normalize(plane)
}

// skipNorms advances r past n calls of r.Norm, making the same draws
// (u1, redrawn while zero, then u2) without the arithmetic.
func skipNorms(r *tensor.RNG, n int) {
	for ; n > 0; n-- {
		for r.Float64() == 0 {
		}
		r.Float64()
	}
}

// Smooth applies `passes` rounds of the separable [1 2 1]/4 binomial blur
// in place (replicated borders).
func Smooth(plane []float32, h, w, passes int) {
	tmp := make([]float32, h*w)
	for p := 0; p < passes; p++ {
		// Horizontal.
		for y := 0; y < h; y++ {
			row := plane[y*w : (y+1)*w]
			out := tmp[y*w : (y+1)*w]
			for x := 0; x < w; x++ {
				l, rr := x-1, x+1
				if l < 0 {
					l = 0
				}
				if rr >= w {
					rr = w - 1
				}
				out[x] = 0.25*row[l] + 0.5*row[x] + 0.25*row[rr]
			}
		}
		// Vertical.
		for y := 0; y < h; y++ {
			u, d := y-1, y+1
			if u < 0 {
				u = 0
			}
			if d >= h {
				d = h - 1
			}
			for x := 0; x < w; x++ {
				plane[y*w+x] = 0.25*tmp[u*w+x] + 0.5*tmp[y*w+x] + 0.25*tmp[d*w+x]
			}
		}
	}
}

func normalize(plane []float32) {
	var sum, sq float64
	for _, v := range plane {
		sum += float64(v)
	}
	mean := sum / float64(len(plane))
	for _, v := range plane {
		d := float64(v) - mean
		sq += d * d
	}
	std := math.Sqrt(sq / float64(len(plane)))
	if std == 0 {
		return
	}
	for i := range plane {
		plane[i] = float32((float64(plane[i]) - mean) / std)
	}
}

// Classification is a synthetic image-classification dataset in the style
// of CIFAR10: each class has a fixed smooth template; samples are the
// template plus smooth instance noise and a random circular shift.
type Classification struct {
	Classes   int
	Channels  int
	H, W      int
	templates [][]float32 // per class per channel planes
	rng       *tensor.RNG
	noise     float64
	smooth    int
}

// ClassificationConfig parameterizes NewClassification.
type ClassificationConfig struct {
	Classes  int
	Channels int
	H, W     int
	Noise    float64 // instance noise amplitude relative to template (default 0.6)
	Smooth   int     // blur passes (default 4)
	Seed     uint64
}

// NewClassification builds the dataset generator.
func NewClassification(cfg ClassificationConfig) *Classification {
	if cfg.Noise == 0 {
		cfg.Noise = 0.6
	}
	if cfg.Smooth == 0 {
		cfg.Smooth = 4
	}
	r := tensor.NewRNG(cfg.Seed + 1)
	d := &Classification{
		Classes:  cfg.Classes,
		Channels: cfg.Channels,
		H:        cfg.H,
		W:        cfg.W,
		rng:      r,
		noise:    cfg.Noise,
		smooth:   cfg.Smooth,
	}
	for cl := 0; cl < cfg.Classes; cl++ {
		planes := make([]float32, 0, cfg.Channels*cfg.H*cfg.W)
		for ch := 0; ch < cfg.Channels; ch++ {
			planes = append(planes, Texture(r, cfg.H, cfg.W, cfg.Smooth)...)
		}
		d.templates = append(d.templates, planes)
	}
	return d
}

// Batch generates a batch of n samples, returning the images and labels.
// Labels cycle through the classes so every batch is balanced. The random
// stream is walked serially — each sample's shift, then its channels'
// noise, skipped over with the RNG's position at each plane's start
// recorded — and each (sample, channel) plane replays its own noise from
// that position on a parallel.For index, so the batch and the RNG state
// after it are the same at any worker count.
func (d *Classification) Batch(n int) (*tensor.Tensor, []int) {
	x := tensor.New(n, d.Channels, d.H, d.W)
	labels := make([]int, n)
	plane := d.H * d.W
	shifts := make([][2]int, n)
	starts := make([]uint64, n*d.Channels)
	for i := 0; i < n; i++ {
		labels[i] = i % d.Classes
		shifts[i] = [2]int{d.rng.Intn(d.H), d.rng.Intn(d.W)}
		for ch := 0; ch < d.Channels; ch++ {
			starts[i*d.Channels+ch] = d.rng.State()
			skipNorms(d.rng, plane)
		}
	}
	parallel.For(n*d.Channels, 1, func(lo, hi int) {
		noise := make([]float32, plane)
		var r tensor.RNG
		for k := lo; k < hi; k++ {
			i, ch := k/d.Channels, k%d.Channels
			r.SetState(starts[k])
			texture(&r, noise, d.H, d.W, d.smooth)
			tpl := d.templates[labels[i]][ch*plane : (ch+1)*plane]
			dst := x.Data[k*plane : (k+1)*plane]
			dy, dx := shifts[i][0], shifts[i][1]
			for y := 0; y < d.H; y++ {
				sy := (y + dy) % d.H
				for xx := 0; xx < d.W; xx++ {
					sx := (xx + dx) % d.W
					dst[y*d.W+xx] = tpl[sy*d.W+sx] + float32(d.noise)*noise[y*d.W+xx]
				}
			}
		}
	})
	return x, labels
}

// SuperRes generates Div2k-style super-resolution training pairs: the
// input is a bicubic-like blurred version of a smooth high-resolution
// texture and the target is the original (the VDSR setting with 2×
// degradation applied at the same resolution, as the paper's 64×64 random
// crops).
type SuperRes struct {
	H, W int
	rng  *tensor.RNG
}

// NewSuperRes builds the generator.
func NewSuperRes(h, w int, seed uint64) *SuperRes {
	return &SuperRes{H: h, W: w, rng: tensor.NewRNG(seed + 2)}
}

// Pair returns (input, target) batches of n single-channel patches.
func (s *SuperRes) Pair(n int) (*tensor.Tensor, *tensor.Tensor) {
	in := tensor.New(n, 1, s.H, s.W)
	out := tensor.New(n, 1, s.H, s.W)
	plane := s.H * s.W
	for i := 0; i < n; i++ {
		hr := Texture(s.rng, s.H, s.W, 3)
		lr := make([]float32, plane)
		copy(lr, hr)
		// Degrade: downsample 2× by averaging and upsample by replication,
		// then blur — the classic bicubic-LR stand-in.
		downUp(lr, s.H, s.W)
		Smooth(lr, s.H, s.W, 1)
		copy(out.Data[i*plane:(i+1)*plane], hr)
		copy(in.Data[i*plane:(i+1)*plane], lr)
	}
	return in, out
}

func downUp(plane []float32, h, w int) {
	for y := 0; y < h; y += 2 {
		for x := 0; x < w; x += 2 {
			y1, x1 := y+1, x+1
			if y1 >= h {
				y1 = y
			}
			if x1 >= w {
				x1 = x
			}
			avg := (plane[y*w+x] + plane[y*w+x1] + plane[y1*w+x] + plane[y1*w+x1]) / 4
			plane[y*w+x] = avg
			plane[y*w+x1] = avg
			plane[y1*w+x] = avg
			plane[y1*w+x1] = avg
		}
	}
}

// PSNR computes the peak signal-to-noise ratio in dB between prediction
// and target, with the peak taken as the target's dynamic range (the
// super-resolution quality metric of Table I).
func PSNR(pred, target *tensor.Tensor) float64 {
	mse := tensor.MSE(pred, target)
	if mse == 0 {
		return math.Inf(1)
	}
	var lo, hi float64 = math.Inf(1), math.Inf(-1)
	for _, v := range target.Data {
		f := float64(v)
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	peak := hi - lo
	if peak == 0 {
		peak = 1
	}
	return 10 * math.Log10(peak*peak/mse)
}
