package main

// The binary, run: -c then -d gives back, bit for bit, what the JPEG-ACT
// method recovers in process from the same tensor and table; a frame with
// one flipped byte does not decode.

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"jpegact"
	"jpegact/internal/data"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
)

func TestActcompress(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "actcompress")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Skipf("go build unavailable: %v\n%s", err, out)
	}
	floats := func(vals []float32) []byte {
		b := make([]byte, 4*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
		}
		return b
	}
	x := data.ActivationTensor(tensor.NewRNG(7), 2, 4, 16, 16, 0.5, 1.0)
	if err := os.WriteFile(filepath.Join(dir, "in.f32"), floats(x.Data), 0o644); err != nil {
		t.Fatal(err)
	}
	// run executes actcompress in dir and requires the exit status and a
	// substring of standard error.
	run := func(exit int, stderr string, args string) {
		t.Helper()
		cmd := exec.Command(bin, strings.Fields(args)...)
		cmd.Dir = dir
		var errOut bytes.Buffer
		cmd.Stderr = &errOut
		err := cmd.Run()
		if code := cmd.ProcessState.ExitCode(); code != exit || !strings.Contains(errOut.String(), stderr) {
			t.Fatalf("actcompress %s: exit %d (%v), stderr %q; want exit %d, stderr with %q", args, code, err, errOut.String(), exit, stderr)
		}
	}

	run(0, "", "-c -shape 2x4x16x16 -dqt opth -in in.f32 -out a.jafr")
	run(0, "", "-d -dqt opth -in a.jafr -out rec.f32")
	got, err := os.ReadFile(filepath.Join(dir, "rec.f32"))
	if err != nil {
		t.Fatal(err)
	}
	method := jpegact.JPEGACTWith(jpegact.FixedDQT(jpegact.OptH()))
	want := jpegact.CompressActivation(method, x, jpegact.KindConv, 0).Recovered
	if !bytes.Equal(got, floats(want.Data)) {
		t.Fatal("the file -d wrote is not what the method recovers from the same tensor")
	}

	frame, err := os.ReadFile(filepath.Join(dir, "a.jafr"))
	if err != nil {
		t.Fatal(err)
	}

	// -dqt-file takes the place of -dqt: a saved optL gives the frame
	// -dqt optl gives, which is not optH's.
	optl, table := quant.OptL(), new(bytes.Buffer)
	if err := optl.Save(table); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "optl.dqt"), table.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	run(0, "", "-c -shape 2x4x16x16 -dqt optl -in in.f32 -out named.jafr")
	run(0, "", "-c -shape 2x4x16x16 -dqt-file optl.dqt -in in.f32 -out loaded.jafr")
	named, _ := os.ReadFile(filepath.Join(dir, "named.jafr"))
	loaded, err := os.ReadFile(filepath.Join(dir, "loaded.jafr"))
	if err != nil || !bytes.Equal(named, loaded) || bytes.Equal(loaded, frame) {
		t.Fatalf("-dqt-file optl.dqt: %v, %d B; -dqt optl %d B, -dqt opth %d B", err, len(loaded), len(named), len(frame))
	}

	frame[len(frame)/2] ^= 0x10
	if err := os.WriteFile(filepath.Join(dir, "bad.jafr"), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	run(1, "checksum mismatch", "-d -dqt opth -in bad.jafr -out bad.f32")
	run(1, "must be NxCxHxW", "-c -shape 2x4x16 -in in.f32 -out b.jafr")
	run(1, "exactly one of -c or -d", "-c -d")
}
