package main

// The binary, run: -list names every experiment, -exp prints the table
// the runner returns, and a bad invocation exits non-zero.

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"jpegact/internal/experiments"
)

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
