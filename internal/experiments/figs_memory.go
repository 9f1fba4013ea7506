package experiments

import (
	"jpegact/internal/gpusim"
	"jpegact/internal/memory"
)

func init() {
	register("memory", "Full-scale activation storage and compressed footprint (intro motivation)", runMemory)
}

func runMemory(o Options) *Result {
	res := &Result{
		ID:     "memory",
		Title:  Title("memory"),
		Header: []string{"network", "batch", "fp32 GB"},
		Notes: []string{
			"full-scale shape inventories (real network dimensions), forward saved tensors only",
			"the paper's motivation: ResNet50/ImageNet exceeds a 12 GB Titan V long before production batch sizes",
		},
	}
	const gb = float64(1 << 30)
	batches := []int{64, 256}
	if o.Quick {
		batches = []int{64}
	}
	schemes := []gpusim.Scheme{
		gpusim.CDMAPlus(), gpusim.GIST(), gpusim.SFPROnly(),
		gpusim.JPEGAct(gpusim.JPEGActDefaultRatios()),
	}
	for _, s := range schemes {
		res.Header = append(res.Header, s.Name+" GB")
	}
	for _, n := range memory.All() {
		for _, b := range batches {
			row := []string{n.Name, f("%d", b), f("%.1f", float64(n.TotalBytes(b))/gb)}
			for _, s := range schemes {
				row = append(row, f("%.1f", float64(n.CompressedBytes(b, s.Ratio))/gb))
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res
}
