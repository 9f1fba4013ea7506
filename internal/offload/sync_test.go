package offload

import (
	"fmt"

	"jpegact/internal/frame"
	"jpegact/internal/nn"
)

// The synchronous offload the store tests drive: one ref at a time
// through the same commit the engine's drain runs, so both land on
// identical bytes. Their restores run through the engine (restoreStep).

// Offload compresses the ref's activation into a framed buffer on the
// transport backend and releases the tensor (ref.T becomes nil, or a
// BRC mask replaces it). Refs are deduplicated by pointer; offloading
// the same ref twice is an error.
func (s *Store) Offload(ref *nn.ActRef) error {
	s.mu.Lock()
	_, dup := s.entries[ref]
	s.mu.Unlock()
	if dup {
		return fmt.Errorf("offload: offload %q (%s): already stored", ref.Name, ref.Kind)
	}
	if ref.T == nil {
		return fmt.Errorf("offload: offload %q (%s): %w", ref.Name, ref.Kind, ErrNotStored)
	}
	enc, err := s.Codec.Encode(ref.Kind, ref.T)
	if err != nil {
		return fmt.Errorf("offload: offload %q (%s): %w", ref.Name, ref.Kind, err)
	}
	return s.commitWait(s.commitIssue(ref, frame.EncodeFrame(enc.Frame), enc.Mask, false))
}

// OffloadAll offloads every unique saved ref of a network (forward-pass
// end), returning the original and compressed byte totals.
func (s *Store) OffloadAll(refs []*nn.ActRef) (orig, comp int, err error) {
	seen := map[*nn.ActRef]bool{}
	for _, ref := range refs {
		if seen[ref] || ref.T == nil {
			continue
		}
		seen[ref] = true
		orig += ref.T.Bytes()
		if err := s.Offload(ref); err != nil {
			return orig, s.HostBytes(), err
		}
	}
	return orig, s.HostBytes(), nil
}

// HostBytes returns the total framed footprint currently resident.
func (s *Store) HostBytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, e := range s.entries {
		n += e.size
	}
	return n
}

// restoreStep runs one backward pass of a fresh engine over s's resident
// entries: PrepareBackward, a Restore of each of refs in the order
// given, then EndStep, which finishes the rest of the plan. A failed
// Restore aborts the step with its error.
func restoreStep(s *Store, refs ...*nn.ActRef) error {
	eng := NewEngine(s, EngineConfig{})
	defer eng.Close()
	eng.BeginStep()
	eng.PrepareBackward()
	for _, ref := range refs {
		if err := eng.Restore(ref); err != nil {
			eng.Abort()
			return err
		}
	}
	return eng.EndStep()
}

// Seq returns the offload sequence number of ref, and whether it is
// currently stored.
func (s *Store) Seq(ref *nn.ActRef) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[ref]
	if !ok {
		return 0, false
	}
	return e.seq, true
}
