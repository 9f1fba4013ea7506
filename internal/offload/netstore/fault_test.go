package netstore

import (
	"errors"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"jpegact/internal/offload/transport"
	"jpegact/internal/splitmix"
)

// TestKilledShardLosesItsFrames: a shard holds the one copy of each of
// its keys, so killing it loses those frames for real — the GET reports
// the typed ErrNotFound the client's recovery policy handles — while
// keys on the other shards survive.
func TestKilledShardLosesItsFrames(t *testing.T) {
	srv, dial := startServer(t, Config{Shards: 4})
	c := transport.NewNetClient(dial, nil)
	defer c.Close()
	buf := testFrame(t, 2)
	const n = 16
	for i := 0; i < n; i++ {
		if _, err := c.Put(uint64(i), buf, transport.Retry{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.Entries(); got != n {
		t.Fatalf("%d resident entries, want one per key (%d)", got, n)
	}
	const key = 3
	srv.KillShard(int(splitmix.Mix(key) % uint64(len(srv.shards))))
	if _, err := c.Get(key, transport.Retry{}, false); !errors.Is(err, transport.ErrNotFound) {
		t.Fatalf("want ErrNotFound after shard kill, got %v", err)
	}
	if got := srv.Entries(); got == 0 || got >= n {
		t.Fatalf("%d entries after one kill, want some but not all of %d", got, n)
	}
}

// TestShutdownDrainsInFlightResponses: a Shutdown issued while requests
// are streaming must (a) refuse new connections immediately, and (b)
// let every already-submitted request complete with a real response or
// a clean wire error — never a hang and never a torn response.
func TestShutdownDrainsInFlightResponses(t *testing.T) {
	srv := New(Config{Shards: 2})
	addr := "unix:" + filepath.Join(t.TempDir(), "store.sock")
	ln, err := srv.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	dial, err := transport.DialAddr(addr)
	if err != nil {
		t.Fatal(err)
	}

	buf := testFrame(t, 6)
	const workers = 4
	var completed sync.WaitGroup
	done := make(chan struct{})
	var mu sync.Mutex
	oks := 0
	for w := 0; w < workers; w++ {
		completed.Add(1)
		go func(w int) {
			defer completed.Done()
			c := transport.NewNetClient(dial, nil)
			defer c.Close()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				key := uint64(w)<<32 | uint64(i)
				_, err := c.Put(key, buf, transport.Retry{})
				if err == nil {
					_, err = c.Get(key, transport.Retry{}, false)
				}
				if err != nil {
					// During/after drain the only acceptable failures are
					// clean connection-level ones, which the client types
					// as wire errors (or a refused dial).
					if errors.Is(err, transport.ErrWire) {
						return
					}
					var ne net.Error
					if errors.As(err, &ne) || errors.Is(err, transport.ErrStoreUnavailable) {
						return
					}
					t.Errorf("worker %d: unclean failure during drain: %v", w, err)
					return
				}
				mu.Lock()
				oks++
				mu.Unlock()
			}
		}(w)
	}

	// Let traffic flow, then pull the plug.
	for {
		mu.Lock()
		n := oks
		mu.Unlock()
		if n >= 8 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	close(done)
	completed.Wait()

	// New connections must be refused once draining began.
	if conn, err := dial(); err == nil {
		conn.Close()
		t.Fatal("dial succeeded after shutdown")
	}
	mu.Lock()
	n := oks
	mu.Unlock()
	if n == 0 {
		t.Fatal("no operations completed before drain — test proved nothing")
	}
}

// TestShutdownIdempotentAndServeReturnsNil: Serve must return nil (not
// an accept error) when the listener dies because of a drain, and a
// second Shutdown/Close is a no-op.
func TestShutdownIdempotentAndServeReturnsNil(t *testing.T) {
	srv := New(Config{})
	addr := "unix:" + filepath.Join(t.TempDir(), "store.sock")
	ln, err := srv.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	if err := srv.Shutdown(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve returned %v after drain, want nil", err)
	}
	if err := srv.Shutdown(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStaleUnixSocketCleanedUp: a socket file left behind by a killed
// process must not block a restarted server from binding the same
// address — the restart-in-place move the chaos harness depends on.
func TestStaleUnixSocketCleanedUp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.sock")
	addr := "unix:" + path

	first := New(Config{})
	ln, err := first.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate SIGKILL: close the raw listener without unlinking the
	// socket file (Go's net package unlinks on Close, so suppress it).
	ln.(*net.UnixListener).SetUnlinkOnClose(false)
	ln.Close()

	second := New(Config{})
	ln2, err := second.Listen(addr)
	if err != nil {
		t.Fatalf("restart over stale socket failed: %v", err)
	}
	go second.Serve(ln2)
	defer second.Close()

	dial, err := transport.DialAddr(addr)
	if err != nil {
		t.Fatal(err)
	}
	c := transport.NewNetClient(dial, nil)
	defer c.Close()
	if _, err := c.Put(1, testFrame(t, 1), transport.Retry{}); err != nil {
		t.Fatalf("restarted server not serving: %v", err)
	}
}
