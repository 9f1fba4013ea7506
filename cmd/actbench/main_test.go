package main

// The binary, run: -list names every experiment, -exp prints the table
// the runner returns, and a bad invocation exits non-zero. The tables
// themselves are pinned in testdata/.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"jpegact/internal/experiments"
)

// fullSize are the experiments whose full-size tables take well under a
// second; they are pinned at full size as well as at -quick.
var fullSize = []string{"fig1a", "fig20", "fig21", "table4", "table5", "memory", "capacity", "fig2", "fig6"}

// TestGoldenTables compares what `actbench -exp <id> -quick` prints for
// every experiment with testdata/<id>.golden, and what `actbench -exp
// <id>` prints for the fullSize ones with testdata/<id>.full.golden.
// UPDATE_GOLDEN=1 rewrites the files. The tables hold on amd64: where the
// compiler fuses multiply-adds the float32 DCT's low bits move.
func TestGoldenTables(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden tables were recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	type golden struct {
		id, file string
		quick    bool
	}
	var cases []golden
	for _, id := range experiments.IDs() {
		cases = append(cases, golden{id, id + ".golden", true})
	}
	for _, id := range fullSize {
		cases = append(cases, golden{id, id + ".full.golden", false})
	}
	for _, c := range cases {
		t.Run(c.file, func(t *testing.T) {
			r, err := experiments.Run(c.id, experiments.Options{Quick: c.quick, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, filepath.Join("testdata", c.file), []byte(r.String()+"\n"))
		})
	}
}

// checkGolden compares got with the file at path, or rewrites the file
// under UPDATE_GOLDEN=1.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (UPDATE_GOLDEN=1 writes it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}

func TestActbench(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "actbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Skipf("go build unavailable: %v\n%s", err, out)
	}
	table2, err := experiments.Run("table2", experiments.Options{Quick: true, Seed: 42})
	if err != nil || len(table2.Rows) == 0 {
		t.Fatalf("table2: %v, %d rows", err, len(table2.Rows))
	}
	// fig2 draws its tensors from the seed, so -seed must reach the runner.
	fig2, err := experiments.Run("fig2", experiments.Options{Quick: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args string
		exit int
		want []string // each a substring of stdout
	}{
		{"-list", 0, experiments.IDs()},
		{"-exp table2 -quick", 0, []string{table2.String()}},
		{"-exp fig2 -quick -seed 7", 0, []string{fig2.String()}},
		{"-exp bogus", 1, nil},
		{"", 2, nil},
	} {
		cmd := exec.Command(bin, strings.Fields(tc.args)...)
		out, err := cmd.Output()
		if code := cmd.ProcessState.ExitCode(); code != tc.exit {
			t.Fatalf("actbench %s: exit %d (%v), want %d", tc.args, code, err, tc.exit)
		}
		for _, w := range tc.want {
			if !strings.Contains(string(out), w) {
				t.Fatalf("actbench %s: output lacks %q:\n%s", tc.args, w, out)
			}
		}
	}
}
