package models

import (
	"reflect"
	"testing"

	"jpegact/internal/nn"
)

// TestNetStateRoundTrip: for every bundled model, CaptureNetState /
// RestoreNetState must rewind ALL forward side effects — BatchNorm
// running stats and dropout RNG position — so a replayed training
// forward is bit-identical to the original. This is the property the
// recompute recovery path and the data-parallel microbatch replay both
// rest on.
func TestNetStateRoundTrip(t *testing.T) {
	for _, m := range All(Scale{}, 4, 3) {
		st0 := nn.CaptureNetState(m.Net)
		if len(st0) == 0 {
			t.Fatalf("%s: no Stateful layers captured", m.Name)
		}

		out1 := forward(t, m, true)
		st1 := nn.CaptureNetState(m.Net)
		if len(st1) != len(st0) {
			t.Fatalf("%s: snapshot length changed %d -> %d", m.Name, len(st0), len(st1))
		}

		// The training forward must actually have moved state: BN running
		// stats always, the dropout RNG position when the model has one.
		bnMoved, rngMoved := false, false
		for i := range st1 {
			if _, isRNG := st1[i].(uint64); isRNG {
				if st1[i] != st0[i] {
					rngMoved = true
				}
			} else if !reflect.DeepEqual(st1[i], st0[i]) {
				bnMoved = true
			}
		}
		if !bnMoved {
			t.Fatalf("%s: training forward left every BatchNorm running stat untouched", m.Name)
		}
		if m.HasDropout && !rngMoved {
			t.Fatalf("%s: training forward did not advance the dropout RNG", m.Name)
		}
		if !m.HasDropout && rngMoved {
			t.Fatalf("%s: dropout RNG entry present in a dropout-free model", m.Name)
		}

		// Rewind and verify the restore is lossless.
		nn.RestoreNetState(m.Net, st0)
		if back := nn.CaptureNetState(m.Net); !reflect.DeepEqual(back, st0) {
			t.Fatalf("%s: restore(st0) then capture differs from st0", m.Name)
		}

		// A replayed forward from the rewound state must be bit-identical,
		// in both its output and its side effects.
		out2 := forward(t, m, true)
		if out1.T.Shape != out2.T.Shape {
			t.Fatalf("%s: replay shape %v vs %v", m.Name, out2.T.Shape, out1.T.Shape)
		}
		for i, v := range out2.T.Data {
			if v != out1.T.Data[i] {
				t.Fatalf("%s: replay output diverges at %d: %v vs %v", m.Name, i, v, out1.T.Data[i])
			}
		}
		if st2 := nn.CaptureNetState(m.Net); !reflect.DeepEqual(st2, st1) {
			t.Fatalf("%s: replay side effects differ from the original forward", m.Name)
		}
	}
}

// TestNetStateEvalForwardIsStateless: an eval forward (train=false) must
// not move any captured state — BN uses the running stats without
// updating them, and eval dropout draws nothing from the RNG. The
// data-parallel trainer's validation pass depends on this.
func TestNetStateEvalForwardIsStateless(t *testing.T) {
	for _, m := range All(Scale{}, 4, 4) {
		st0 := nn.CaptureNetState(m.Net)
		forward(t, m, false)
		if st1 := nn.CaptureNetState(m.Net); !reflect.DeepEqual(st1, st0) {
			t.Fatalf("%s: eval forward mutated captured state", m.Name)
		}
	}
}

// TestNetStateSaltedRestoreDiverges: restoring a salted snapshot must
// change what a dropout model's forward computes (the per-microbatch
// decorrelation the data-parallel trainer uses), while salting a
// dropout-free model's snapshot is a no-op on the forward output.
func TestNetStateSaltedRestoreDiverges(t *testing.T) {
	for _, m := range All(Scale{}, 4, 5) {
		st0 := nn.CaptureNetState(m.Net)
		out1 := forward(t, m, true)

		nn.RestoreNetState(m.Net, nn.SaltNetState(st0, 7))
		out2 := forward(t, m, true)

		same := true
		for i, v := range out2.T.Data {
			if v != out1.T.Data[i] {
				same = false
				break
			}
		}
		if m.HasDropout && same {
			t.Fatalf("%s: salted dropout RNG produced an identical forward", m.Name)
		}
		if !m.HasDropout && !same {
			t.Fatalf("%s: salt changed the forward of a dropout-free model", m.Name)
		}
	}
}
