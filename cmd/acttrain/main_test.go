package main

// Process-level integration tests: the product binaries driven against
// each other. Everything these runs do has an in-process twin under
// internal/train (key isolation, K-invariance, chaos and server death);
// what only real processes add is real sockets between address spaces and
// a real kill -9, and a surface check that what acttrain prints — the
// epoch table and the weights digest on its last line — is what the
// bit-exactness contract promises.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"jpegact/internal/models"
)

// small returns the flags of a run of a fraction of a second — 3 epochs
// of 4 steps — followed by extra (a repeated flag overrides).
func small(extra ...string) []string {
	return append([]string{"-model", "ResNet18", "-width", "6", "-epochs", "3", "-batches", "4", "-batch", "4"}, extra...)
}

var bins struct {
	once               sync.Once
	dir                string
	acttrain, actstore string
	err                error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if bins.dir != "" {
		os.RemoveAll(bins.dir)
	}
	os.Exit(code)
}

// binaries builds acttrain and actstore once — with the race detector
// when this test binary has it — and skips the test when the toolchain
// is unavailable.
func binaries(t *testing.T) (acttrain, actstore string) {
	t.Helper()
	bins.once.Do(func() {
		if bins.dir, bins.err = os.MkdirTemp("", "acttrain-test"); bins.err != nil {
			return
		}
		args := []string{"build"}
		if info, ok := debug.ReadBuildInfo(); ok {
			for _, s := range info.Settings {
				if s.Key == "-race" && s.Value == "true" {
					args = append(args, "-race")
				}
			}
		}
		args = append(args, "-o", bins.dir+string(filepath.Separator), ".", "../actstore")
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			bins.err = fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
		bins.acttrain = filepath.Join(bins.dir, "acttrain")
		bins.actstore = filepath.Join(bins.dir, "actstore")
	})
	if bins.err != nil {
		t.Skipf("go build unavailable: %v", bins.err)
	}
	return bins.acttrain, bins.actstore
}

// startStore runs actstore on sock and returns once it accepts
// connections. A socket file a killed predecessor left behind is the
// server's to reclaim.
func startStore(t *testing.T, bin, sock string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "unix:" + sock}, args...)...)
	var logs bytes.Buffer
	cmd.Stdout, cmd.Stderr = &logs, &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if c, err := net.Dial("unix", sock); err == nil {
			c.Close()
			return cmd
		}
		if time.Now().After(deadline) {
			t.Fatalf("actstore never came up:\n%s", logs.String())
		}
	}
}

// train runs acttrain to completion and returns its standard output.
func train(bin string, args ...string) (string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return string(out), fmt.Errorf("acttrain %s: %v\n%s%s", strings.Join(args, " "), err, out, stderr.String())
	}
	return string(out), nil
}

func mustTrain(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := train(bin, args...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

var digestLine = regexp.MustCompile(`^weights sha256=[0-9a-f]{64}$`)

// digest returns acttrain's last output line, which must be the weights
// digest.
func digest(t *testing.T, out string) string {
	t.Helper()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	last := lines[len(lines)-1]
	if !digestLine.MatchString(last) {
		t.Fatalf("last line %q is not a weights digest:\n%s", last, out)
	}
	return last
}

// epochTable returns the per-epoch result rows ("0  1.3858  0.2500 ...").
func epochTable(out string) []string {
	var rows []string
	for _, l := range strings.Split(out, "\n") {
		if f := strings.Fields(l); len(f) >= 3 {
			if _, err := strconv.Atoi(f[0]); err == nil {
				rows = append(rows, l)
			}
		}
	}
	return rows
}

// counter extracts name=<n> from the output.
func counter(t *testing.T, out, name string) int {
	t.Helper()
	m := regexp.MustCompile(`\b`+name+`=(\d+)`).FindAllStringSubmatch(out, -1)
	if m == nil {
		t.Fatalf("no %s= in the output:\n%s", name, out)
	}
	n, _ := strconv.Atoi(m[len(m)-1][1]) // the last mention is the run total
	return n
}

// TestNetworkedClientsMatchLocal: four trainers sharing one actstore
// under disjoint key bases each print the epoch table and the weights
// digest of the in-process run.
func TestNetworkedClientsMatchLocal(t *testing.T) {
	acttrain, actstore := binaries(t)
	sock := filepath.Join(t.TempDir(), "store.sock")
	startStore(t, actstore, sock)

	args := small("-offload", "-async")
	local := mustTrain(t, acttrain, args...)
	want, table := digest(t, local), epochTable(local)
	if len(table) != 3 {
		t.Fatalf("local run printed %d epoch rows:\n%s", len(table), local)
	}

	const clients = 4
	outs := make([]string, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], errs[i] = train(acttrain, small("-offload", "-async",
				"-store", "unix:"+sock, "-store-key", strconv.Itoa(i+1))...)
		}()
	}
	wg.Wait()
	for i, out := range outs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !strings.Contains(out, "+netstore") {
			t.Fatalf("client %d did not train over the store:\n%s", i+1, out)
		}
		if got := digest(t, out); got != want {
			t.Errorf("client %d: %s, local run %s", i+1, got, want)
		}
		if got := epochTable(out); strings.Join(got, "\n") != strings.Join(table, "\n") {
			t.Errorf("client %d epoch table:\n%s\nlocal:\n%s", i+1, strings.Join(got, "\n"), strings.Join(table, "\n"))
		}
	}
}

// TestDataParallelReplicasMatch: K ∈ {1, 2, 4} replicas exchanging
// gradients through one actstore print the digest of the in-process K=1
// run, and the exchange really happened.
func TestDataParallelReplicasMatch(t *testing.T) {
	acttrain, actstore := binaries(t)
	sock := filepath.Join(t.TempDir(), "store.sock")
	startStore(t, actstore, sock)

	want := digest(t, mustTrain(t, acttrain, small("-replicas", "1")...))
	for _, k := range []string{"1", "2", "4"} {
		out := mustTrain(t, acttrain, small("-replicas", k, "-store", "unix:"+sock)...)
		if got := digest(t, out); got != want {
			t.Errorf("K=%s over the store: %s, in-process K=1 %s", k, got, want)
		}
		if counter(t, out, "grad_puts") == 0 || !strings.Contains(out, "+netstore") {
			t.Errorf("K=%s: no gradient crossed the store:\n%s", k, out)
		}
	}
}

// TestStoreKilledAndRestarted: an actstore is kill -9ed the moment the
// trainer reports its first epoch and restarted on the stale socket one
// epoch later. The trainer is held (SIGSTOP) while the test
// acts, so the outage covers the same stretch of the run on any machine:
// epoch 0 healthy, the next epoch against a dead store (recompute
// replays, then the breaker degrades to the local fallback), the rest
// against the new process (a probe closes the breaker and the client
// reconnects). The digest must still be the in-process run's.
func TestStoreKilledAndRestarted(t *testing.T) {
	acttrain, actstore := binaries(t)
	sock := filepath.Join(t.TempDir(), "store.sock")
	storeArgs := []string{"-shards", "4"}
	store := startStore(t, actstore, sock, storeArgs...)

	args := small("-offload", "-async", "-epochs", "5")
	want := digest(t, mustTrain(t, acttrain, args...))

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	client := exec.CommandContext(ctx, acttrain, append(args, "-store", "unix:"+sock)...)
	var stderr bytes.Buffer
	client.Stderr = &stderr
	stdout, err := client.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Start(); err != nil {
		t.Fatal(err)
	}
	defer client.Process.Kill()
	hold := func(sig syscall.Signal) {
		t.Helper()
		if err := client.Process.Signal(sig); err != nil {
			t.Fatalf("signal %v to acttrain: %v\n%s", sig, err, stderr.String())
		}
	}

	var out strings.Builder
	epochLines := 0
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		out.WriteString(line + "\n")
		if !strings.HasPrefix(line, "epoch ") {
			continue
		}
		switch epochLines++; epochLines {
		case 1:
			hold(syscall.SIGSTOP)
			store.Process.Kill() // SIGKILL: no drain, the socket file stays behind
			store.Wait()
			hold(syscall.SIGCONT)
		case 2:
			hold(syscall.SIGSTOP)
			startStore(t, actstore, sock, storeArgs...)
			hold(syscall.SIGCONT)
		}
	}
	if err := client.Wait(); err != nil {
		t.Fatalf("acttrain through the outage: %v\n%s%s", err, out.String(), stderr.String())
	}
	if got := digest(t, out.String()); got != want {
		t.Errorf("through kill and restart: %s, in-process run %s", got, want)
	}
	if counter(t, out.String(), "degraded") == 0 || counter(t, out.String(), "reconnects") == 0 {
		t.Errorf("the outage was not felt (want degraded > 0 and reconnects > 0):\n%s", out.String())
	}
}

// TestOffloadFlagsSelectTheirVariant: each flag that picks a variant of
// the offloaded step picks the one the library tests hold it to — a
// faulted channel under recompute and a dead store under the breaker end
// on the clean run's weights, -freq and -seed on other ones, and
// -no-degrade turns the dead store into a failed run.
func TestOffloadFlagsSelectTheirVariant(t *testing.T) {
	acttrain, _ := binaries(t)
	want := digest(t, mustTrain(t, acttrain, small("-offload", "-async")...))

	faulted := mustTrain(t, acttrain, small("-offload", "-async", "-policy", "recompute",
		"-flip", "1e-5", "-trunc", "0.02", "-drop", "0.02")...)
	if got := digest(t, faulted); got != want {
		t.Errorf("faulted channel: %s, clean run %s", got, want)
	}
	if counter(t, faulted, "truncations") == 0 || counter(t, faulted, "recomputed") == 0 {
		t.Errorf("no truncation was injected and recovered:\n%s", faulted)
	}

	freq := mustTrain(t, acttrain, small("-offload", "-async", "-freq")...)
	if digest(t, freq) == want || counter(t, freq, "coef_restores") == 0 {
		t.Errorf("-freq restored no coefficient planes or trained the spatial trajectory:\n%s", freq)
	}
	if digest(t, mustTrain(t, acttrain, small("-offload", "-async", "-seed", "7")...)) == want {
		t.Error("-seed 7 trained the weights of -seed 42")
	}

	dead := []string{"-offload", "-async", "-store", "unix:" + filepath.Join(t.TempDir(), "none.sock"), "-store-timeout", "200ms"}
	degraded := mustTrain(t, acttrain, small(dead...)...)
	if got := digest(t, degraded); got != want || counter(t, degraded, "degraded") == 0 {
		t.Errorf("dead store: %s (clean run %s), want degraded > 0:\n%s", got, want, degraded)
	}
	if out, err := train(acttrain, small(append(dead, "-no-degrade")...)...); err == nil {
		t.Errorf("-no-degrade trained through a dead store:\n%s", out)
	}
}

// TestEveryListedModelTrains: the -model usage string and the one
// model-by-name lookup (models.ByName) agree — every name the usage lists
// trains a step and prints a digest, and the lookup accepts no name the
// usage leaves out.
func TestEveryListedModelTrains(t *testing.T) {
	acttrain, _ := binaries(t)
	help, _ := exec.Command(acttrain, "-h").CombinedOutput() // -h exits 0 or 2 by Go version
	m := regexp.MustCompile(`(?m)^\s+-model string\n\s+(\S+)`).FindSubmatch(help)
	if m == nil {
		t.Fatalf("no -model usage in:\n%s", help)
	}
	listed := strings.Split(string(m[1]), "|")
	for _, name := range listed {
		out := mustTrain(t, acttrain, "-model", name, "-width", "6", "-epochs", "1", "-batches", "1", "-batch", "2")
		digest(t, out)
		if !strings.Contains(out, "model="+name+" ") {
			t.Errorf("-model %s trained another network:\n%s", name, out)
		}
	}
	for _, name := range models.Names {
		if !slices.Contains(listed, name) {
			t.Errorf("models.ByName accepts %q, the -model usage (%s) does not list it", name, m[1])
		}
	}
}
