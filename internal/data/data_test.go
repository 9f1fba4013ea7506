package data

import (
	"math"
	"testing"

	"jpegact/internal/parallel"
	"jpegact/internal/tensor"
)

func TestTextureNormalized(t *testing.T) {
	r := tensor.NewRNG(1)
	p := Texture(r, 32, 32, 4)
	var sum, sq float64
	for _, v := range p {
		sum += float64(v)
	}
	mean := sum / float64(len(p))
	for _, v := range p {
		d := float64(v) - mean
		sq += d * d
	}
	std := math.Sqrt(sq / float64(len(p)))
	if math.Abs(mean) > 1e-5 || math.Abs(std-1) > 1e-5 {
		t.Fatalf("mean %v std %v", mean, std)
	}
}

func TestTextureIsSpatiallyCorrelated(t *testing.T) {
	// Lag-1 autocorrelation of a smoothed field must be high; of raw
	// noise, near zero.
	r := tensor.NewRNG(2)
	smooth := Texture(r, 64, 64, 6)
	rough := Texture(r, 64, 64, 0)
	if cs, cr := lag1(smooth, 64, 64), lag1(rough, 64, 64); cs < 0.6 || math.Abs(cr) > 0.15 {
		t.Fatalf("autocorr smooth %v rough %v", cs, cr)
	}
}

func lag1(p []float32, h, w int) float64 {
	var num, den float64
	for y := 0; y < h; y++ {
		for x := 0; x+1 < w; x++ {
			num += float64(p[y*w+x]) * float64(p[y*w+x+1])
			den += float64(p[y*w+x]) * float64(p[y*w+x])
		}
	}
	return num / den
}

func TestClassificationBatch(t *testing.T) {
	d := NewClassification(ClassificationConfig{Classes: 4, Channels: 3, H: 16, W: 16, Seed: 3})
	x, labels := d.Batch(8)
	if x.Shape != (tensor.Shape{N: 8, C: 3, H: 16, W: 16}) {
		t.Fatalf("shape %v", x.Shape)
	}
	if len(labels) != 8 {
		t.Fatalf("labels %d", len(labels))
	}
	// Balanced labels.
	counts := map[int]int{}
	for _, l := range labels {
		counts[l]++
	}
	for cl := 0; cl < 4; cl++ {
		if counts[cl] != 2 {
			t.Fatalf("class %d count %d", cl, counts[cl])
		}
	}
}

func TestClassificationClassesAreSeparable(t *testing.T) {
	// Same-class samples must correlate with their template more than
	// cross-class: a nearest-template classifier should beat chance well.
	d := NewClassification(ClassificationConfig{Classes: 4, Channels: 1, H: 16, W: 16, Noise: 0.4, Seed: 4})
	x, labels := d.Batch(40)
	correct := 0
	plane := 16 * 16
	for i := 0; i < 40; i++ {
		best, bestCl := math.Inf(-1), -1
		for cl := 0; cl < 4; cl++ {
			// Max correlation over circular shifts is expensive; templates
			// plus shift mean we compare energy of best alignment. Use the
			// max absolute correlation over all shifts of row 0 only as a
			// cheap proxy: instead correlate full image over all shifts.
			c := maxShiftCorr(x.Data[i*plane:(i+1)*plane], d.templates[cl], 16, 16)
			if c > best {
				best, bestCl = c, cl
			}
		}
		if bestCl == labels[i] {
			correct++
		}
	}
	if correct < 24 { // chance = 10
		t.Fatalf("nearest-template classifier got %d/40", correct)
	}
}

func maxShiftCorr(a, b []float32, h, w int) float64 {
	best := math.Inf(-1)
	for dy := 0; dy < h; dy += 2 {
		for dx := 0; dx < w; dx += 2 {
			var c float64
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					c += float64(a[y*w+x]) * float64(b[((y+dy)%h)*w+(x+dx)%w])
				}
			}
			if c > best {
				best = c
			}
		}
	}
	return best
}

func TestSuperResPair(t *testing.T) {
	s := NewSuperRes(16, 16, 5)
	in, out := s.Pair(4)
	if in.Shape != out.Shape {
		t.Fatal("shapes differ")
	}
	// The degraded input must differ from but correlate with the target.
	if tensor.MSE(in, out) == 0 {
		t.Fatal("input identical to target")
	}
	var corr, e1, e2 float64
	for i := range in.Data {
		corr += float64(in.Data[i]) * float64(out.Data[i])
		e1 += float64(in.Data[i]) * float64(in.Data[i])
		e2 += float64(out.Data[i]) * float64(out.Data[i])
	}
	if corr/math.Sqrt(e1*e2) < 0.7 {
		t.Fatalf("input/target correlation too low: %v", corr/math.Sqrt(e1*e2))
	}
}

func TestPSNR(t *testing.T) {
	a := tensor.New(1, 1, 4, 4)
	b := tensor.New(1, 1, 4, 4)
	for i := range a.Data {
		a.Data[i] = float32(i)
		b.Data[i] = float32(i)
	}
	if !math.IsInf(PSNR(a, b), 1) {
		t.Fatal("identical tensors must have infinite PSNR")
	}
	b.Data[0] += 1
	p1 := PSNR(a, b)
	b.Data[0] += 9
	p2 := PSNR(a, b)
	if p1 <= p2 {
		t.Fatalf("PSNR must fall with error: %v then %v", p1, p2)
	}
}

func TestDeterminism(t *testing.T) {
	d1 := NewClassification(ClassificationConfig{Classes: 2, Channels: 1, H: 8, W: 8, Seed: 9})
	d2 := NewClassification(ClassificationConfig{Classes: 2, Channels: 1, H: 8, W: 8, Seed: 9})
	x1, _ := d1.Batch(4)
	x2, _ := d2.Batch(4)
	for i := range x1.Data {
		if x1.Data[i] != x2.Data[i] {
			t.Fatal("same seed must generate identical data")
		}
	}
}

// serialBatch is Batch as a single loop, drawing every normal through
// r.Norm next to the arithmetic on it: the reference the parallel Batch
// must reproduce bit for bit.
func serialBatch(d *Classification, n int) *tensor.Tensor {
	x := tensor.New(n, d.Channels, d.H, d.W)
	plane := d.H * d.W
	for i := 0; i < n; i++ {
		cl := i % d.Classes
		dy, dx := d.rng.Intn(d.H), d.rng.Intn(d.W)
		for ch := 0; ch < d.Channels; ch++ {
			tpl := d.templates[cl][ch*plane : (ch+1)*plane]
			noise := make([]float32, plane)
			for j := range noise {
				noise[j] = float32(d.rng.Norm())
			}
			Smooth(noise, d.H, d.W, d.smooth)
			normalize(noise)
			dst := x.Data[(i*d.Channels+ch)*plane : (i*d.Channels+ch+1)*plane]
			for y := 0; y < d.H; y++ {
				sy := (y + dy) % d.H
				for xx := 0; xx < d.W; xx++ {
					sx := (xx + dx) % d.W
					dst[y*d.W+xx] = tpl[sy*d.W+sx] + float32(d.noise)*noise[y*d.W+xx]
				}
			}
		}
	}
	return x
}

// TestBatchMatchesSerialGenerator: the parallel Batch produces the serial
// generator's images bit for bit, and leaves the RNG where it does, over
// five batches at 1 and 3 workers.
func TestBatchMatchesSerialGenerator(t *testing.T) {
	cfg := ClassificationConfig{Classes: 4, Channels: 3, H: 16, W: 24, Noise: 0.4, Seed: 31}
	prev := parallel.SetWorkers(1)
	t.Cleanup(func() { parallel.SetWorkers(prev) })
	for _, workers := range []int{1, 3} {
		parallel.SetWorkers(workers)
		got, want := NewClassification(cfg), NewClassification(cfg)
		for b := 0; b < 5; b++ {
			x, _ := got.Batch(5)
			ref := serialBatch(want, 5)
			for i := range ref.Data {
				if math.Float32bits(x.Data[i]) != math.Float32bits(ref.Data[i]) {
					t.Fatalf("workers %d batch %d: element %d is %v, the serial generator's %v", workers, b, i, x.Data[i], ref.Data[i])
				}
			}
		}
		if got.rng.State() != want.rng.State() {
			t.Fatalf("workers %d: RNG state %x after five batches, the serial generator's %x", workers, got.rng.State(), want.rng.State())
		}
	}
}
