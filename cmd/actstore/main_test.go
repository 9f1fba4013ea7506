package main

// End-to-end drain test against the real binary: actstore under live
// PUT/GET traffic must, on SIGTERM, stop accepting connections, let the
// in-flight responses finish cleanly and exit 0 — the contract a rolling
// restart of a shared store leans on.

import (
	"bytes"
	"context"
	"errors"
	"net"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"jpegact/internal/frame"
	"jpegact/internal/offload/transport"
	"jpegact/internal/tensor"
)

func buildActstore(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "actstore")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Skipf("go build unavailable: %v\n%s", err, out)
	}
	return bin
}

func drainTestFrame(fill byte) []byte {
	return frame.EncodeFrame(&frame.Frame{
		Codec:   frame.CodecZVC,
		Shape:   tensor.Shape{N: 1, C: 1, H: 2, W: 2},
		Scales:  []float32{1},
		Payload: []byte{fill, fill, fill, fill},
	})
}

func TestSignalDrain(t *testing.T) {
	bin := buildActstore(t)
	sock := filepath.Join(t.TempDir(), "store.sock")
	addr := "unix:" + sock

	cmd := exec.Command(bin, "-addr", addr, "-grace", "5s", "-v")
	var logs bytes.Buffer
	cmd.Stdout = &logs
	cmd.Stderr = &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Wait for the listener.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if c, err := net.Dial("unix", sock); err == nil {
			// Not a request: under -v the server logs why it hangs up.
			c.Write(bytes.Repeat([]byte{0xff}, 64))
			c.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up:\n%s", logs.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	dial, err := transport.DialAddr(addr)
	if err != nil {
		t.Fatal(err)
	}

	// Live traffic: workers PUT and immediately GET back, verifying the
	// payload round-trips intact. Once the drain begins they are allowed
	// exactly one kind of failure — a clean wire/connection error — never
	// a corrupt response.
	var ok atomic.Uint64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := transport.NewNetClient(dial, nil)
			defer c.Close()
			buf := drainTestFrame(byte(w + 1))
			for seq := uint64(0); !stop.Load(); seq++ {
				key := uint64(w+1)<<32 | seq
				if _, err := c.Put(key, buf, transport.Retry{}); err != nil {
					return
				}
				f, err := c.Get(key, transport.Retry{}, false)
				if err != nil {
					return
				}
				if len(f.Payload) != 4 || f.Payload[0] != byte(w+1) {
					t.Errorf("worker %d: corrupt payload %v", w, f.Payload)
					return
				}
				ok.Add(1)
			}
		}(w)
	}

	// Let the traffic establish itself, then pull the trigger.
	for ok.Load() < 30 {
		time.Sleep(5 * time.Millisecond)
	}
	before := ok.Load()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// The listener must go away: new dials start failing while (or just
	// after) the in-flight work drains.
	deadline = time.Now().Add(3 * time.Second)
	for {
		c, err := net.Dial("unix", sock)
		if err != nil {
			break
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("new connections still accepted after SIGTERM")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The process must exit cleanly inside the grace budget — Serve
	// returns nil on a drain, so a clean drain is exit 0.
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("actstore exited dirty: %v\n%s", err, logs.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("actstore did not exit within grace:\n%s", logs.String())
	}

	stop.Store(true)
	wg.Wait()
	if got := ok.Load(); got < before {
		t.Fatalf("completed op count went backwards: %d < %d", got, before)
	}
	if !strings.Contains(logs.String(), "(closing)") {
		t.Fatalf("-v logged no protocol error for the poisoned connection:\n%s", logs.String())
	}
	if !strings.Contains(logs.String(), "draining") {
		t.Fatalf("no drain log line:\n%s", logs.String())
	}
	if !strings.Contains(logs.String(), "done:") {
		t.Fatalf("no final counter line — Serve did not return cleanly:\n%s", logs.String())
	}
}

// TestShardsFlagIsGone: the store is one map, so -shards is an undefined
// flag that exits 2 before anything listens. A binary that took the
// flag would serve until the timeout kills it.
func TestShardsFlagIsGone(t *testing.T) {
	bin := buildActstore(t)
	sock := filepath.Join(t.TempDir(), "store.sock")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, bin, "-addr", "unix:"+sock, "-shards", "4").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "flag provided but not defined: -shards") {
		t.Fatalf("actstore -shards 4: %v, want exit 2 as an undefined flag:\n%s", err, out)
	}
}
