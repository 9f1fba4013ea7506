// Command dqtopt runs the §IV DQT optimization procedure (Fig. 9): it
// trains the generator network briefly, harvests dense activations, then
// minimizes O = (1-α)λ₁H + αλ₂L2 over the quantization table by
// finite-difference SGD, printing the trace and the resulting table in
// both exact and power-of-two (SH) form.
//
// Usage:
//
//	dqtopt -alpha 0.005 -iters 10          # optH-style table
//	dqtopt -alpha 0.025 -iters 10          # optL-style table
//	dqtopt -seed-table jpeg80 -grouped=false
package main

import (
	"flag"
	"fmt"
	"os"

	"jpegact"
	"jpegact/internal/data"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
)

func main() {
	alpha := flag.Float64("alpha", 0.005, "rate/distortion trade-off (optL=0.025, optH=0.005)")
	iters := flag.Int("iters", 8, "SGD iterations")
	grouped := flag.Bool("grouped", true, "optimize anti-diagonal groups instead of all 63 entries")
	seedTable := flag.String("seed-table", "uniform16", "uniform16|jpeg80|jpeg60|optl|opth")
	samples := flag.Int("samples", 4, "sample activation tensors")
	seed := flag.Uint64("seed", 42, "deterministic seed")
	out := flag.String("out", "", "write the optimized table to this file (quant text format)")
	name := flag.String("name", "opt", "name recorded in the saved table")
	flag.Parse()

	var seedDQT quant.DQT
	switch *seedTable {
	case "uniform16":
		seedDQT = quant.Uniform("uniform16", 8, 16)
	case "jpeg80":
		seedDQT = quant.JPEGQuality(80)
	case "jpeg60":
		seedDQT = quant.JPEGQuality(60)
	case "optl":
		seedDQT = quant.OptL()
	case "opth":
		seedDQT = quant.OptH()
	default:
		fmt.Fprintf(os.Stderr, "dqtopt: unknown seed table %q\n", *seedTable)
		os.Exit(2)
	}

	// Sample activations: flat-spectrum activation-like tensors (the
	// shipped stand-in for the paper's 240 generator-network examples).
	r := tensor.NewRNG(*seed)
	acts := make([]*jpegact.Tensor, *samples)
	for i := range acts {
		acts[i] = data.ActivationTensor(r, 1, 8, 32, 32, 0.5, 1.0)
	}

	cfg := jpegact.DQTOptimizerConfig{Alpha: *alpha, Iters: *iters, Grouped: *grouped}
	d, trace := jpegact.OptimizeDQT(seedDQT, acts, cfg)

	fmt.Printf("seed=%s alpha=%g iters=%d grouped=%v\n", seedDQT.Name, *alpha, *iters, *grouped)
	fmt.Printf("%-5s %-10s %-12s %-12s\n", "iter", "entropy", "L2", "objective")
	for i, p := range trace {
		fmt.Printf("%-5d %-10.4f %-12.4e %-12.4f\n", i, p.Entropy, p.L2, p.O)
	}
	fmt.Println("optimized DQT (row-major):")
	for row := 0; row < 8; row++ {
		for col := 0; col < 8; col++ {
			fmt.Printf("%6.1f", d.Entries[row*8+col])
		}
		fmt.Println()
	}
	logs := d.ShiftLogs()
	fmt.Println("SH form (log2 shifts):")
	for row := 0; row < 8; row++ {
		for col := 0; col < 8; col++ {
			fmt.Printf("%3d", logs[row*8+col])
		}
		fmt.Println()
	}

	if *out != "" {
		d.Name = *name
		fh, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dqtopt:", err)
			os.Exit(1)
		}
		defer fh.Close()
		if err := d.Save(fh); err != nil {
			fmt.Fprintln(os.Stderr, "dqtopt:", err)
			os.Exit(1)
		}
		fmt.Println("saved table to", *out)
	}
}
