// Command actcompress compresses and decompresses activation tensors on
// disk as the offload store's own frames (internal/frame: CRC32C over
// header, scales and payload; a damaged file fails to decode with the
// typed frame error). Input tensors are raw little-endian float32 in
// NCHW order; the shape is given on the command line for compression and
// recorded in the frame for decompression. Frames, like the store, do
// not carry the quantization table: -d takes the same -dqt or -dqt-file
// as -c.
//
// Usage:
//
//	actcompress -c -shape 8x64x32x32 -dqt opth -in acts.f32 -out acts.jafr
//	actcompress -d -dqt opth -in acts.jafr -out recovered.f32
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"jpegact"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
)

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "actcompress: "+format+"\n", args...)
	os.Exit(1)
}

func parseShape(s string) (tensor.Shape, error) {
	parts := strings.Split(s, "x")
	if len(parts) != 4 {
		return tensor.Shape{}, fmt.Errorf("shape %q must be NxCxHxW", s)
	}
	var dims [4]int
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v <= 0 {
			return tensor.Shape{}, fmt.Errorf("bad dimension %q", p)
		}
		dims[i] = v
	}
	return tensor.Shape{N: dims[0], C: dims[1], H: dims[2], W: dims[3]}, nil
}

func tableByName(name string) (quant.DQT, bool) {
	switch strings.ToLower(name) {
	case "optl":
		return quant.OptL(), true
	case "opth":
		return quant.OptH(), true
	case "jpeg80":
		return quant.JPEGQuality(80), true
	case "jpeg60":
		return quant.JPEGQuality(60), true
	}
	return quant.DQT{}, false
}

func main() {
	comp := flag.Bool("c", false, "compress")
	decomp := flag.Bool("d", false, "decompress")
	shapeStr := flag.String("shape", "", "input shape NxCxHxW (compress only)")
	dqtName := flag.String("dqt", "opth", "optl|opth|jpeg80|jpeg60 (the frame does not record it: give -d what -c had)")
	dqtFile := flag.String("dqt-file", "", "load the DQT from a file written by dqtopt -out (likewise for both -c and -d)")
	in := flag.String("in", "", "input file")
	out := flag.String("out", "", "output file")
	flag.Parse()

	if *comp == *decomp {
		fail("need exactly one of -c or -d")
	}
	if *in == "" || *out == "" {
		fail("need -in and -out")
	}
	inF, err := os.Open(*in)
	if err != nil {
		fail("%v", err)
	}
	defer inF.Close()
	outF, err := os.Create(*out)
	if err != nil {
		fail("%v", err)
	}
	defer outF.Close()

	var d quant.DQT
	if *dqtFile != "" {
		fh, err := os.Open(*dqtFile)
		if err != nil {
			fail("%v", err)
		}
		d, err = quant.LoadDQT(fh)
		fh.Close()
		if err != nil {
			fail("load DQT: %v", err)
		}
	} else {
		var ok bool
		d, ok = tableByName(*dqtName)
		if !ok {
			fail("unknown DQT %q", *dqtName)
		}
	}

	if *decomp {
		x, err := jpegact.ReadCompressed(inF, d)
		if err != nil {
			fail("decode: %v", err)
		}
		buf := make([]byte, 4*len(x.Data))
		for i, v := range x.Data {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
		}
		if _, err := outF.Write(buf); err != nil {
			fail("%v", err)
		}
		fmt.Printf("decompressed %s tensor to %s (%d bytes)\n", x.Shape.String(), *out, len(buf))
		return
	}

	shape, err := parseShape(*shapeStr)
	if err != nil {
		fail("%v", err)
	}
	raw, err := os.ReadFile(*in)
	if err != nil {
		fail("%v", err)
	}
	if len(raw) != 4*shape.Elems() {
		fail("input is %d bytes; shape %s needs %d", len(raw), shape.String(), 4*shape.Elems())
	}
	x := tensor.New(shape.N, shape.C, shape.H, shape.W)
	for i := range x.Data {
		x.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}

	n, err := jpegact.WriteCompressed(outF, x, d)
	if err != nil {
		fail("encode: %v", err)
	}
	fmt.Printf("compressed %s (%d bytes) -> %s (%d-byte frame, %.2fx)\n",
		shape.String(), len(raw), *out, n, float64(len(raw))/float64(n))
}
