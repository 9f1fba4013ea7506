package examples

// Every example is a root of the reachability guard for the facade names
// it mentions, so every example is run: built once — with the race
// detector when this test binary has it — and required to exit 0 having
// printed something. An example that prints no wall-clock measurement
// prints the same bytes on every run, and those are pinned in
// testdata/<name>.golden (UPDATE_GOLDEN=1 rewrites them). The pins hold on
// amd64: where the compiler fuses multiply-adds the float32 DCT's low bits
// move.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"
)

// timed are the examples whose output includes measured times.
var timed = map[string]bool{"host_offload": true}

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
		if !d.IsDir() || d.Name() == "testdata" {
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
			if !timed[d.Name()] && runtime.GOARCH == "amd64" {
				checkGolden(t, filepath.Join("testdata", d.Name()+".golden"), stdout.Bytes())
			}
		})
	}
	if ran == 0 {
		t.Fatal("no example directories next to this file")
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
