package nn

// Step-replay support for the recompute-on-corruption recovery path:
// when a corrupted offload frame cannot be re-read, the trainer aborts
// the step and runs it again from the batch input (the nearest
// activation that is guaranteed intact). For the replay's forward pass
// to be bit-identical to the original — the property the whole recovery
// story rests on — every forward side effect beyond the saved ActRefs
// must be rewound first. Exactly two layer kinds have such state:
// BatchNorm (running mean/var updates) and Dropout (RNG draws).

// Container is implemented by layers that hold child layers; Walk uses
// it to reach every layer in a network.
type Container interface {
	Children() []Layer
}

// Children implements Container.
func (s *Sequential) Children() []Layer { return s.Layers }

// Children implements Container.
func (r *Residual) Children() []Layer {
	out := []Layer{r.Body}
	if r.Shortcut != nil {
		out = append(out, r.Shortcut)
	}
	return out
}

// Walk visits l and every descendant layer in deterministic order.
func Walk(l Layer, fn func(Layer)) {
	fn(l)
	if c, ok := l.(Container); ok {
		for _, ch := range c.Children() {
			Walk(ch, fn)
		}
	}
}

// Stateful is implemented by layers whose training-mode Forward mutates
// state beyond the saved activation refs, and which must therefore be
// rewound before a forward replay.
type Stateful interface {
	// CaptureState returns an opaque snapshot of the mutable state.
	CaptureState() any
	// RestoreState rewinds to a snapshot from CaptureState.
	RestoreState(st any)
}

// NetState is an ordered snapshot of every Stateful layer in a network.
type NetState []any

// CaptureNetState snapshots all forward side-effect state under root
// (call it immediately before Forward to enable an exact replay).
func CaptureNetState(root Layer) NetState {
	var out NetState
	Walk(root, func(l Layer) {
		if s, ok := l.(Stateful); ok {
			out = append(out, s.CaptureState())
		}
	})
	return out
}

// RestoreNetState rewinds all Stateful layers under root to a snapshot
// taken by CaptureNetState on the same network.
func RestoreNetState(root Layer, st NetState) {
	i := 0
	Walk(root, func(l Layer) {
		if s, ok := l.(Stateful); ok {
			if i >= len(st) {
				panic("nn: RestoreNetState snapshot does not match network")
			}
			s.RestoreState(st[i])
			i++
		}
	})
	if i != len(st) {
		panic("nn: RestoreNetState snapshot does not match network")
	}
}

// bnState is BatchNorm's Stateful snapshot.
type bnState struct {
	runningMean []float32
	runningVar  []float32
}

// CaptureState implements Stateful (running stats only: the per-batch
// mean/invStd are recomputed identically by the replay).
func (b *BatchNorm) CaptureState() any {
	return bnState{
		runningMean: append([]float32(nil), b.RunningMean...),
		runningVar:  append([]float32(nil), b.RunningVar...),
	}
}

// RestoreState implements Stateful.
func (b *BatchNorm) RestoreState(st any) {
	s := st.(bnState)
	copy(b.RunningMean, s.runningMean)
	copy(b.RunningVar, s.runningVar)
}

// CaptureState implements Stateful: dropout's only mutable state is its
// RNG position. Layers sharing one RNG capture the same value and are
// rewound idempotently.
func (d *Dropout) CaptureState() any { return d.rng.State() }

// RestoreState implements Stateful.
func (d *Dropout) RestoreState(st any) { d.rng.SetState(st.(uint64)) }
