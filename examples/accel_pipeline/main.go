// accel_pipeline runs JPEG-ACT on the hardware model of the CDU datapath
// instead of the float functional pipeline: SFPR codes → fixed-point DCT →
// SH → ZVC → collector packets → splitter → decompression. It prints the
// compression ratio and reconstruction error of both on the same
// activation, per quantization table — the cross-check that lets training
// results from the functional simulation stand for the integer datapath.
package main

import (
	"fmt"

	"jpegact"
	"jpegact/internal/data"
	"jpegact/internal/tensor"
)

func main() {
	x := data.ActivationTensor(tensor.NewRNG(9), 4, 16, 32, 32, 0.5, 1.0)
	fmt.Printf("JPEG-ACT on a %v conv activation, functional pipeline vs CDU datapath (4 CDUs)\n", x.Shape)
	fmt.Printf("%-18s %-8s %s\n", "method", "ratio", "L2 error")
	for _, d := range []jpegact.DQT{jpegact.OptL(), jpegact.OptH()} {
		s := jpegact.FixedDQT(d)
		for _, m := range []jpegact.Method{jpegact.JPEGACTWith(s), jpegact.HardwareJPEGACT(s, 4)} {
			res := jpegact.CompressActivation(m, x, jpegact.KindConv, 0)
			fmt.Printf("%-18s %-8.2f %.2e\n", m.Name(), res.Ratio(), tensor.L2Error(x, res.Recovered))
		}
	}
	fmt.Println("\nthe datapath rounds its DCT in Q13 fixed point and writes eight mask")
	fmt.Println("bytes per block; its stream is counted before the 128 B packet padding.")
}
