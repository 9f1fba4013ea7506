package examples

// Every example is a root of the reachability guard for the facade names
// it mentions, so every example is run: built once — with the race
// detector when this test binary has it — and required to exit 0 having
// printed something.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"testing"
)

func TestExamplesRun(t *testing.T) {
	bin := t.TempDir()
	args := []string{"build"}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" && s.Value == "true" {
				args = append(args, "-race")
			}
		}
	}
	args = append(args, "-o", bin+string(filepath.Separator), "./...")
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Skipf("go build unavailable: go %v: %v\n%s", args, err, out)
	}
	dirs, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		ran++
		t.Run(d.Name(), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(bin, d.Name()))
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%v\n%s%s", err, stdout.Bytes(), stderr.Bytes())
			}
			if stdout.Len() == 0 {
				t.Fatal("printed nothing")
			}
		})
	}
	if ran == 0 {
		t.Fatal("no example directories next to this file")
	}
}
