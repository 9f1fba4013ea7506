// Circuit breaker: the store's failure-domain boundary against a dying
// networked activation store. Whole-operation wire failures (the
// transport's typed ErrStoreUnavailable — the verdict of an exhausted
// retry schedule, never a single dropped connection) open the breaker
// at once, and offloads degrade to an in-process fallback backend
// holding the *identical encoded frame bytes* a healthy wire PUT would
// have carried. Because
// the lossy codec ran before the routing decision, a degraded step and
// a healthy step reconstruct bit-identical activations — the chaos
// soak test pins exactly this.
//
// While open, the wire is skipped entirely for probeAfter operations
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

// probeAfter is how many operations are served degraded before a
// half-open probe re-tries the wire. Op-count probation keeps degraded
// runs deterministic where a time-based cooldown would not be.
const probeAfter = 32

// breaker is the closed/open/half-open state machine. It opens on the
// first whole-op wire failure: a forward pass has no recovery for a
// commit that failed, so that frame must already degrade to the local
// fallback — or a store dying mid-step ends the run. It is shared by
// the synchronous store paths and the engine's encode pool, so
// every transition holds the mutex.
type breaker struct {
	mu     sync.Mutex
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
	if b.served >= probeAfter {
		return false
	}
	b.served++
	return true
}

// onFailure records a whole-op wire failure: it opens the breaker (or
// re-opens it after a failed half-open probe) and restarts probation.
func (b *breaker) onFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.open = true
	b.served = 0
}

// onSuccess records a whole op completed on the wire; any success —
// including a half-open probe — closes the breaker fully.
func (b *breaker) onSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.open = false
	b.served = 0
}
