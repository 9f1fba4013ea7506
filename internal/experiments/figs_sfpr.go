package experiments

import (
	"jpegact/internal/compress"
	"jpegact/internal/data"
	"jpegact/internal/models"
	"jpegact/internal/offload/codec"
	"jpegact/internal/quant"
	"jpegact/internal/sfpr"
	"jpegact/internal/tensor"
	"jpegact/internal/train"

	"jpegact/internal/dqtopt"
)

func init() {
	register("fig10", "Scaling factor landscape: recovered error vs S", runFig10)
	register("fig16", "Rate/distortion trade-off: SFPR bits, image DQTs, optimized DQTs", runFig16)
	register("fig17", "Activation error and entropy over training epochs per DQT", runFig17)
}

func runFig10(o Options) *Result {
	res := &Result{
		ID:     "fig10",
		Title:  Title("fig10"),
		Header: []string{"S", "SFPR", "SFPR+DCT+DIV+RLE(jpeg80)", "SFPR+DCT+SH+ZVC(optH)"},
		Notes: []string{
			"recovered-activation L2 error on harvested conv+sum activations",
			"error rises at small S (truncation) and large S (clipping); S=1.125 sits in the flat valley",
		},
	}
	acts := denseActs(harvest(o, 5))
	svals := []float64{0.25, 0.5, 0.75, 1.0, 1.125, 1.25, 1.5, 2.0, 4.0}
	if o.Quick {
		svals = []float64{0.5, 1.125, 4.0}
	}
	for _, s := range svals {
		var eSFPR, eBase, eAct float64
		for _, x := range acts {
			eSFPR += recoveredError(compress.SFPROnly{}, s, x)
			eBase += recoveredError(compress.NewJPEGBase(quant.JPEGQuality(80)), s, x)
			eAct += recoveredError(compress.NewJPEGAct(quant.Fixed(quant.OptH())), s, x)
		}
		n := float64(len(acts))
		res.Rows = append(res.Rows, []string{
			f("%.3f", s), f("%.2e", eSFPR/n), f("%.2e", eBase/n), f("%.2e", eAct/n),
		})
	}
	return res
}

// recoveredError is the L2 error of the conv/sum activation x through
// method m's frame codec at SFPR scale s.
func recoveredError(m compress.Method, s float64, x *tensor.Tensor) float64 {
	p := codec.For(m, 0)
	p.S = s
	return tensor.L2Error(x, p.Compress(compress.KindConv, x).Recovered)
}

func runFig16(o Options) *Result {
	res := &Result{
		ID:     "fig16",
		Title:  Title("fig16"),
		Header: []string{"point", "entropy (bits/value)", "L2 error"},
		Notes: []string{
			"harvested conv+sum activations; lower-left dominates",
			"optimized DQTs sit below the image-DQT curve (≈1 bit less at matched error, §IV)",
		},
	}
	acts := denseActs(harvest(o, 5))
	tables := []quant.DQT{
		quant.JPEGQuality(40), quant.JPEGQuality(60),
		quant.JPEGQuality(80), quant.JPEGQuality(90),
		quant.OptL(), quant.OptH(),
	}
	bits := []uint{2, 3, 4}
	if o.Quick {
		tables = tables[2:]
		bits = []uint{3}
	}
	for _, p := range dqtopt.RateDistortion(acts, tables, bits, sfpr.DefaultS) {
		res.Rows = append(res.Rows, []string{p.Name, f("%.3f", p.Entropy), f("%.2e", p.L2)})
	}
	// Alpha sweep: optimize from a uniform seed at several α.
	alphas := []float64{0.001, 0.005, 0.01, 0.025}
	iters := 5
	if o.Quick {
		alphas = []float64{0.005}
		iters = 2
	}
	for _, a := range alphas {
		r := dqtopt.Optimize(quant.Uniform("seed", 8, 16), acts, dqtopt.Config{
			Alpha: a, Iters: iters, Grouped: true, S: sfpr.DefaultS,
		})
		pt := r.Trace[len(r.Trace)-1]
		res.Rows = append(res.Rows, []string{
			f("opt(α=%.3f)", a), f("%.3f", pt.Entropy), f("%.2e", pt.L2),
		})
	}
	return res
}

func runFig17(o Options) *Result {
	res := &Result{
		ID:     "fig17",
		Title:  Title("fig17"),
		Header: []string{"epoch", "DQT", "L2 error", "entropy (bits)"},
		Notes: []string{
			"each DQT evaluated on activation snapshots along a baseline training run",
			"error is highest in the first epochs (weight decay), then stabilizes — the motivation for optL5H",
		},
	}
	epochs := []int{0, 1, 3, 5, 8}
	trainBatches := 8
	if o.Quick {
		epochs = []int{0, 2}
		trainBatches = 4
	}
	tables := []quant.DQT{quant.JPEGQuality(80), quant.OptL(), quant.OptH()}

	// One continuous training run; snapshot activations at chosen epochs.
	sc := models.Scale{Width: 8, Blocks: 1}
	ds := data.NewClassification(data.ClassificationConfig{
		Classes: 4, Channels: 3, H: 16, W: 16, Noise: 0.4, Seed: o.seed(),
	})
	m := models.ResNet50(sc, 4, tensor.NewRNG(o.seed()))
	last := 0
	for _, ep := range epochs {
		if ep > last {
			train.Classifier(m, ds, train.Config{
				Method: compress.Baseline{}, Epochs: ep - last,
				BatchesPerEpoch: trainBatches, BatchSize: 8, LR: 0.05,
			})
			last = ep
		}
		acts := snapshotActs(m, ds)
		for _, d := range tables {
			pt := dqtopt.Evaluate(d, acts, 0, sfpr.DefaultS)
			res.Rows = append(res.Rows, []string{
				f("%d", ep), d.Name, f("%.2e", pt.L2), f("%.3f", pt.Entropy),
			})
		}
	}
	return res
}

// snapshotActs captures current dense activations of a model.
func snapshotActs(m *models.Model, ds *data.Classification) []*tensor.Tensor {
	x, _ := ds.Batch(8)
	m.Net.Forward(refOf(x), true)
	var hs []Harvested
	seen := map[interface{}]bool{}
	for _, ref := range m.Net.SavedRefs() {
		if seen[ref] || ref.T == nil {
			continue
		}
		seen[ref] = true
		hs = append(hs, Harvested{Name: ref.Name, Kind: ref.Kind, T: ref.T.Clone()})
	}
	return denseActs(hs)
}
