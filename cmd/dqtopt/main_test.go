package main

// The binary, run: the table -out writes is one quant.LoadDQT reads back
// under the name -name gave it, and is the table standard output showed;
// -seed draws other sample activations, so the trace it prints moves.

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"jpegact/internal/quant"
)

func TestDqtopt(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "dqtopt")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Skipf("go build unavailable: %v\n%s", err, out)
	}
	table := filepath.Join(dir, "table.dqt")
	var outputs []string
	for _, tc := range []struct {
		args string
		exit int
		name string // of the table written, "" for none
	}{
		{"-iters 1 -samples 1 -out " + table, 0, "opt"},
		{"-iters 1 -samples 1 -seed 7 -out " + table, 0, "opt"},
		{"-iters 1 -samples 1 -seed-table jpeg80 -grouped=false -name mine -out " + table, 0, "mine"},
		{"-seed-table nope", 2, ""},
	} {
		cmd := exec.Command(bin, strings.Fields(tc.args)...)
		out, err := cmd.Output()
		if code := cmd.ProcessState.ExitCode(); code != tc.exit {
			t.Fatalf("dqtopt %s: exit %d (%v), want %d", tc.args, code, err, tc.exit)
		}
		if tc.name == "" {
			continue
		}
		outputs = append(outputs, string(out))
		fh, err := os.Open(table)
		if err != nil {
			t.Fatal(err)
		}
		d, err := quant.LoadDQT(fh)
		fh.Close()
		if err != nil || d.Name != tc.name {
			t.Fatalf("dqtopt %s: loaded %q, %v; want %q", tc.args, d.Name, err, tc.name)
		}
		var firstRow strings.Builder
		for _, v := range d.Entries[:8] {
			fmt.Fprintf(&firstRow, "%6.1f", v)
		}
		if !strings.Contains(string(out), firstRow.String()+"\n") {
			t.Fatalf("dqtopt %s: saved row %q is not in the output:\n%s", tc.args, firstRow.String(), out)
		}
	}
	if outputs[0] == outputs[1] {
		t.Fatalf("-seed 7 printed the run of -seed 42:\n%s", outputs[0])
	}
}
