// Command actstore runs the networked activation store: one
// process that N training or inference clients share as their offload
// target over the wire protocol of internal/offload/transport. Point
// trainers at it with acttrain -store (-offload for activations,
// -replicas for the gradient exchange).
//
//	actstore -addr unix:/tmp/actstore.sock
//	actstore -addr tcp:0.0.0.0:7077 -metrics 127.0.0.1:9090
//
// With -metrics set, the unified counter snapshot (the same one the
// store clients' Stats() report) is served Prometheus-text-style on
// /metrics.
// Every frame is stored once, in one map in this process's memory, so
// the store dies whole: a client recovers the frames it lost through its
// recovery policy (recompute replays the step, then the circuit breaker
// keeps its offloads in the client's own memory).
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"jpegact/internal/offload/netstore"
)

func main() {
	addr := flag.String("addr", "unix:/tmp/actstore.sock", "listen address (unix:/path or tcp:host:port)")
	metrics := flag.String("metrics", "", "HTTP listen address for /metrics (empty = disabled)")
	grace := flag.Duration("grace", 5*time.Second, "shutdown drain budget for in-flight responses")
	verbose := flag.Bool("v", false, "log protocol errors and failed reads per connection")
	flag.Parse()

	var cfg netstore.Config
	if *verbose {
		cfg.Logf = log.Printf
	}
	srv := netstore.New(cfg)

	ln, err := srv.Listen(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "actstore:", err)
		os.Exit(1)
	}
	log.Printf("actstore: serving on %s", *addr)

	if *metrics != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", srv.MetricsHandler())
		go func() {
			log.Printf("actstore: metrics on http://%s/metrics", *metrics)
			if err := http.ListenAndServe(*metrics, mux); err != nil {
				log.Printf("actstore: metrics: %v", err)
			}
		}()
	}

	// Drain on SIGINT/SIGTERM: refuse new connections immediately but
	// flush every in-flight response before exiting, within the grace
	// budget; a second signal (or grace expiry) cuts stragglers hard.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		log.Printf("actstore: %v: draining (grace %v)", s, *grace)
		go func() {
			<-sig
			log.Print("actstore: second signal: closing hard")
			srv.Close()
		}()
		if err := srv.Shutdown(*grace); err != nil {
			log.Printf("actstore: %v", err)
		}
	}()

	if err := srv.Serve(ln); err != nil {
		fmt.Fprintln(os.Stderr, "actstore:", err)
		os.Exit(1)
	}
	snap := srv.Snapshot()
	log.Printf("actstore: done: offloaded=%d restored=%d corrupted=%d entries=%d",
		snap.Offloaded, snap.Restored, snap.Corrupted, srv.Entries())
}
