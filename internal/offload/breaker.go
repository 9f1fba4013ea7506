// Circuit breaker: the store's failure-domain boundary against a dying
// networked activation store. Whole-operation wire failures (the
// transport's typed ErrStoreUnavailable — the verdict of an exhausted
// retry schedule, never a single dropped connection) are counted; after
// FailureThreshold consecutive failures the breaker opens and offloads
// degrade to an in-process fallback backend holding the *identical
// encoded frame bytes* a healthy wire PUT would have carried. Because
// the lossy codec ran before the routing decision, a degraded step and
// a healthy step reconstruct bit-identical activations — the chaos
// soak test pins exactly this.
//
// While open, the wire is skipped entirely for ProbeAfter operations
// (probation is counted in ops, not wall time, so runs are reproducible
// under any timing), then one half-open probe re-tries the real
// transport: success closes the breaker and traffic returns to the
// wire; failure restarts probation. Frames stored degraded stay pinned
// to the fallback for their whole lifetime — restore and delete route
// by the entry's degraded flag — so a mid-step recovery never asks the
// wire for bytes it was never sent.
package offload

import (
	"sync"
)

// BreakerConfig tunes the store's circuit breaker. The zero value is an
// enabled breaker with default thresholds; it only ever engages on a
// wire transport (the in-process backend cannot report the store
// unavailable).
type BreakerConfig struct {
	// Disabled turns the breaker off: whole-op wire failures surface to
	// the caller as errors instead of degrading to the local fallback.
	Disabled bool
	// FailureThreshold is how many consecutive whole-op failures open
	// the breaker (<= 0 uses 1: a forward pass has no recovery for a
	// commit that failed, so the first whole-op wire failure must
	// already degrade that frame to the local fallback — or a store
	// dying mid-step ends the run). Until it opens, every op still
	// tries the wire first — paying its retry budget — and only falls
	// back after that op's failure.
	FailureThreshold int
	// ProbeAfter is how many operations are served degraded before a
	// half-open probe re-tries the wire (<= 0 uses 32). Op-count
	// probation keeps degraded runs deterministic where a time-based
	// cooldown would not be.
	ProbeAfter int
}

// breaker is the closed/open/half-open state machine. It is shared by
// the synchronous store paths and the async engine's encode pool, so
// every transition holds the mutex.
type breaker struct {
	mu     sync.Mutex
	cfg    BreakerConfig
	fails  int  // consecutive whole-op wire failures
	open   bool // wire bypassed
	served int  // degraded ops since (re)opening — probation progress
}

// skipWire reports whether the next operation should bypass the wire
// entirely. While open it admits ops to the fallback until probation is
// served, then answers false once per probation round — the half-open
// probe that gives the wire a chance to win traffic back.
func (b *breaker) skipWire() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return false
	}
	if b.served >= b.cfg.ProbeAfter {
		return false
	}
	b.served++
	return true
}

// onFailure records a whole-op wire failure; crossing the threshold (or
// failing a half-open probe) opens the breaker and restarts probation.
func (b *breaker) onFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	if b.fails >= b.cfg.FailureThreshold {
		b.open = true
		b.served = 0
	}
}

// onSuccess records a whole op completed on the wire; any success —
// including a half-open probe — closes the breaker fully.
func (b *breaker) onSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	b.open = false
	b.served = 0
}

// tripped reports whether the breaker is currently open.
func (b *breaker) tripped() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.open
}
