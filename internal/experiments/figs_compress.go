package experiments

import (
	"jpegact/internal/compress"
	"jpegact/internal/data"
	"jpegact/internal/models"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
	"jpegact/internal/train"
)

func init() {
	register("table1", "Compression rate trade-offs (accuracy/PSNR and ratio per network × method)", runTable1)
	register("fig1b", "Compression ratios and error change on the ResNet workload", runFig1b)
	register("fig19", "Activation footprint breakdown by activation type", runFig19)
	register("table2", "Compression selection by activation type (policy matrix)", runTable2)
	register("table3", "conv+sum compression for DQT × back-end combinations", runTable3)
}

func trainCfg(o Options, m compress.Method) train.Config {
	cfg := train.Config{
		Method: m, Epochs: 8, BatchesPerEpoch: 8, BatchSize: 8,
		MeasureError: true,
	}
	if o.Quick {
		cfg.Epochs = 2
		cfg.BatchesPerEpoch = 4
	}
	return cfg
}

func classDS(o Options) *data.Classification {
	return data.NewClassification(data.ClassificationConfig{
		Classes: 4, Channels: 3, H: 16, W: 16, Noise: 0.6, Seed: o.seed(),
	})
}

func modelSet(o Options) []*models.Model {
	sc := models.Scale{Width: 8, Blocks: 1}
	all := models.All(sc, 4, o.seed())
	if !o.Quick {
		return all
	}
	// Quick mode: one plain net, one bottleneck net, and VDSR.
	var out []*models.Model
	for _, m := range all {
		switch m.Name {
		case "VGG", "ResNet50", "VDSR":
			out = append(out, m)
		}
	}
	return out
}

func methodSet(o Options) []compress.Method {
	ms := compress.Standard()
	if !o.Quick {
		return ms
	}
	// Quick mode: baseline, GIST, SFPR, JPEG-ACT/optL5H.
	return []compress.Method{ms[0], ms[2], ms[3], ms[8]}
}

// runOne trains one (model, method) pair from a fresh copy of the model.
func runOne(o Options, name string, meth compress.Method) train.Report {
	// Rebuild the model fresh so every method starts from identical
	// weights (same seed).
	m, ok := models.ByName(name, models.Scale{Width: 8, Blocks: 1}, 4, tensor.NewRNG(o.seed()))
	if !ok {
		panic("unknown model " + name)
	}
	cls := classDS(o)
	sr := data.NewSuperRes(16, 16, o.seed())
	cfg := trainCfg(o, meth)
	if name == "ResNet101" {
		cfg.LR = 0.03 // the deepest mini net needs a gentler step at this scale
	}
	return train.Run(m, cls, sr, cfg)
}

func runTable1(o Options) *Result {
	res := &Result{
		ID:     "table1",
		Title:  Title("table1"),
		Header: []string{"model", "method", "score", "Δbaseline", "ratio", "diverged"},
		Notes: []string{
			"score = top-1 validation accuracy for classifiers, PSNR(dB) for VDSR",
			"mini networks on synthetic data (DESIGN.md substitutions 2–3); compare shapes, not absolute values",
		},
	}
	for _, m := range modelSet(o) {
		var baseline float64
		for _, meth := range methodSet(o) {
			rep := runOne(o, m.Name, meth)
			if meth.Name() == "baseline" {
				baseline = rep.BestScore
			}
			div := ""
			if rep.Diverged {
				div = "*"
			}
			res.Rows = append(res.Rows, []string{
				m.Name, meth.Name(),
				f("%.3f", rep.BestScore),
				f("%+.3f", rep.BestScore-baseline),
				f("%.1fx", rep.FinalRatio),
				div,
			})
		}
	}
	return res
}

func runFig1b(o Options) *Result {
	res := &Result{
		ID:     "fig1b",
		Title:  Title("fig1b"),
		Header: []string{"method", "avg ratio", "score change"},
	}
	methods := []compress.Method{
		compress.Baseline{}, // vDNN: offload, no compression
		compress.CDMAPlus{},
		compress.GIST{},
		compress.NewJPEGAct(quant.OptL5H()),
	}
	var baseline float64
	for i, meth := range methods {
		rep := runOne(o, "ResNet50", meth)
		if i == 0 {
			baseline = rep.BestScore
		}
		label := meth.Name()
		if i == 0 {
			label = "vDNN"
		}
		res.Rows = append(res.Rows, []string{
			label, f("%.1fx", rep.FinalRatio), f("%+.1f%%", 100*(rep.BestScore-baseline)),
		})
	}
	return res
}

func runFig19(o Options) *Result {
	res := &Result{
		ID:     "fig19",
		Title:  Title("fig19"),
		Header: []string{"model", "method", "kind", "orig MB/iter", "compr MB/iter", "share"},
	}
	meths := []compress.Method{
		compress.CDMAPlus{}, compress.GIST{}, compress.NewJPEGAct(quant.OptL5H()),
	}
	names := []string{"VGG", "ResNet50"}
	if o.Quick {
		names = []string{"ResNet50"}
		meths = meths[1:]
	}
	for _, name := range names {
		for _, meth := range meths {
			rep := runOne(o, name, meth)
			var total int
			for _, fe := range rep.Footprint {
				total += fe.OriginalBytes
			}
			for _, fe := range rep.Footprint {
				res.Rows = append(res.Rows, []string{
					name, meth.Name(), fe.Kind.String(),
					f("%.3f", float64(fe.OriginalBytes)/1e6),
					f("%.3f", float64(fe.CompressedBytes)/1e6),
					f("%.0f%%", 100*float64(fe.OriginalBytes)/float64(total)),
				})
			}
		}
	}
	return res
}

func runTable2(o Options) *Result {
	res := &Result{
		ID:     "table2",
		Title:  Title("table2"),
		Header: []string{"method", "conv/sum", "ReLU(to other)", "ReLU(to conv)", "pool/dropout"},
		Notes:  []string{"JPEG applies to conv/sum only when the reshaped activation is ≥ 8×8 (else SFPR)"},
	}
	kinds := []compress.Kind{
		compress.KindConv, compress.KindReLUToOther,
		compress.KindReLUToConv, compress.KindPoolDropout,
	}
	for _, m := range compress.Standard() {
		row := []string{m.Name()}
		for _, k := range kinds {
			row = append(row, compress.PolicyFor(m, k))
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

func runTable3(o Options) *Result {
	res := &Result{
		ID:     "table3",
		Title:  Title("table3"),
		Header: []string{"back end", "jpeg80", "jpeg60", "optL", "optH", "optL5H"},
		Notes: []string{
			"conv+sum compression ratio on activations harvested from the trained mini ResNet50",
			"optL5H reported with the late-phase (optH) table, as after epoch 5",
		},
	}
	acts := denseActs(harvest(o, 5))
	tables := []quant.DQT{
		quant.JPEGQuality(80), quant.JPEGQuality(60),
		quant.OptL(), quant.OptH(), quant.OptH(), // optL5H late phase = optH
	}
	backends := []struct {
		name       string
		shift, zvc bool
	}{
		{"DIV+RLE", false, false},
		{"SH+RLE", true, false},
		{"DIV+ZVC", false, true},
		{"SH+ZVC", true, true},
	}
	for _, be := range backends {
		row := []string{be.name}
		for _, d := range tables {
			var orig, comp int
			for _, x := range acts {
				p := compress.Pipeline{DQT: d, UseShift: be.shift}
				encode := p.EncodeRLE
				if be.zvc {
					encode = p.Encode
				}
				payload, scales := encode(x)
				orig += x.Bytes()
				comp += len(payload) + 4*len(scales)
			}
			row = append(row, f("%.2f", float64(orig)/float64(comp)))
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}
