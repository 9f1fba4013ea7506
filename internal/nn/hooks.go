package nn

// Hooks connect a network to an activation offload scheduler without the
// layers knowing anything about compression or channels.
//
// OnSave fires during a training-mode forward pass the moment a saved
// activation becomes *emission-safe*: no remaining forward computation
// will read its tensor, so the scheduler may compress it and release the
// float data immediately — this is what lets offload traffic overlap the
// rest of the forward pass instead of bursting at its end. A container
// never emits the current frontier (the next layer's input), and never
// its own input (an enclosing block — a residual shortcut, the sum — may
// still read it) unless it is the root SetHooks was called on: nothing
// encloses the root, so it emits its input once its first child has
// returned, which makes the batch input the step's first offload.
// Whatever those rules hold back is swept by the trainer after the
// forward pass completes.
//
// OnNeed fires during the backward pass just before a layer reads one of
// its saved refs, giving the scheduler the precise demand order for
// restores (and prefetch lookahead).
//
// OnGrad fires during the backward pass the moment a parameter's
// gradient is *final*: the owning layer's Backward has returned, and no
// remaining backward computation will touch p.Grad (each layer
// accumulates only into its own parameters, exactly once per pass). It
// is the gradient-side mirror of OnSave — backward produces parameters
// in reverse network order, so a data-parallel exchange can start
// shipping tail-of-network gradient buckets while the head of the
// network is still differentiating. All hooks may be nil.
type Hooks struct {
	OnSave func(*ActRef)
	OnNeed func(*ActRef)
	OnGrad func(*Param)
}

// hookHost is implemented by containers that propagate hooks and emit
// save/need events for their children; root marks the container
// SetHooks was called on.
type hookHost interface {
	setHooks(h *Hooks, root bool)
	hooked() bool
}

// SetHooks installs h on every hook-aware container reachable from l
// (pass nil to detach), with l as the root. Leaf layers are unaffected;
// their events are emitted by the enclosing container.
func SetHooks(l Layer, h *Hooks) { setHooks(l, h, true) }

func setHooks(l Layer, h *Hooks, root bool) {
	if hh, ok := l.(hookHost); ok {
		hh.setHooks(h, root)
	}
}

// emitSaved fires OnSave for each of l's saved refs except the excluded
// live ones (the current frontier, and the container's input unless it
// is the root). Refs an inner container already emitted are deduplicated
// downstream by the scheduler.
func emitSaved(h *Hooks, l Layer, exclude ...*ActRef) {
	if h == nil || h.OnSave == nil {
		return
	}
refs:
	for _, ref := range l.SavedRefs() {
		for _, ex := range exclude {
			if ref == ex {
				continue refs
			}
		}
		h.OnSave(ref)
	}
}

// emitGrads fires OnGrad for each of a child's parameters once that
// child's Backward has finished accumulating into them. Hooked
// containers emit internally at finer grain (their own Backward walks
// their children), so they are skipped here.
func emitGrads(h *Hooks, l Layer) {
	if h == nil || h.OnGrad == nil {
		return
	}
	if hh, ok := l.(hookHost); ok && hh.hooked() {
		return
	}
	for _, p := range l.Params() {
		h.OnGrad(p)
	}
}

// announceNeeds fires OnNeed for each ref a leaf child is about to read
// in Backward. Hooked containers announce internally at finer grain, so
// they are skipped here.
func announceNeeds(h *Hooks, l Layer) {
	if h == nil || h.OnNeed == nil {
		return
	}
	if hh, ok := l.(hookHost); ok && hh.hooked() {
		return
	}
	for _, ref := range l.SavedRefs() {
		h.OnNeed(ref)
	}
}
