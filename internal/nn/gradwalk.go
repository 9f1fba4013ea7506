package nn

// Parameter/gradient walk for the data-parallel exchange: the trainer
// needs every replica to see the network's gradient as one flat vector
// in one deterministic order, so that the fixed-order all-reduce over
// the activation-store transport is well-defined. The order is the
// order of root.Params() — a pure function of the architecture, so two
// replicas built by the same constructor walk identically.

import "jpegact/internal/splitmix"

// GradSize returns the total element count of all parameter gradients
// under root — the length ImportGrads consumes.
func GradSize(root Layer) int {
	n := 0
	for _, p := range root.Params() {
		n += p.Grad.Elems()
	}
	return n
}

// ImportGrads overwrites every parameter gradient under root from the
// flat vector src, scaling each element by scale on the way in (the
// 1/M microbatch average is applied here, exactly once, as one
// deterministic float32 multiply per element). src must hold exactly
// GradSize(root) elements; a mismatch panics — it means the vector
// came from a different architecture, which no error return can make
// safe to continue from.
func ImportGrads(root Layer, src []float32, scale float32) {
	off := 0
	for _, p := range root.Params() {
		n := p.Grad.Elems()
		if off+n > len(src) {
			panic("nn: ImportGrads vector shorter than the network's gradient")
		}
		for i := 0; i < n; i++ {
			p.Grad.Data[i] = src[off+i] * scale
		}
		off += n
	}
	if off != len(src) {
		panic("nn: ImportGrads vector longer than the network's gradient")
	}
}

// BucketPlan partitions a network's flat gradient vector (Params()
// order) into fixed-size element buckets and tracks, during one backward
// pass, which buckets have been fully produced. The data-parallel trainer hangs its overlapped exchange on
// it: the OnGrad hook reports each finalized parameter, Produce answers
// "which buckets just became complete and may ship now", and because
// backward finalizes parameters in reverse network order the *tail*
// buckets complete first — exactly the order a reducer draining
// reverse-order GETs wants.
//
// The plan is a pure function of the architecture and the bucket size,
// so two replicas built by the same constructor carry identical plans
// (same bucket boundaries, same offsets). It is not safe for concurrent
// use; each worker owns one.
type BucketPlan struct {
	bucketElems int
	total       int
	params      []*Param
	offset      map[*Param]int
	produced    map[*Param]bool
	remaining   []int // per-bucket outstanding element counts
	fresh       []int // pristine remaining counts, restored by Reset
}

// NewBucketPlan builds the plan for root with the given bucket capacity
// in elements (values < 1 collapse to one bucket spanning everything).
func NewBucketPlan(root Layer, bucketElems int) *BucketPlan {
	total := GradSize(root)
	if bucketElems < 1 {
		bucketElems = total
		if bucketElems < 1 {
			bucketElems = 1
		}
	}
	bp := &BucketPlan{
		bucketElems: bucketElems,
		total:       total,
		offset:      map[*Param]int{},
		produced:    map[*Param]bool{},
	}
	off := 0
	for _, p := range root.Params() {
		bp.params = append(bp.params, p)
		bp.offset[p] = off
		off += p.Grad.Elems()
	}
	bp.fresh = make([]int, bp.Buckets())
	for b := range bp.fresh {
		lo, hi := bp.BucketRange(b)
		bp.fresh[b] = hi - lo
	}
	bp.remaining = make([]int, len(bp.fresh))
	bp.Reset()
	return bp
}

// Buckets returns the bucket count (0 for a parameterless network).
func (bp *BucketPlan) Buckets() int {
	return (bp.total + bp.bucketElems - 1) / bp.bucketElems
}

// BucketRange returns bucket b's half-open element range [lo, hi) in
// the flat vector.
func (bp *BucketPlan) BucketRange(b int) (lo, hi int) {
	lo = b * bp.bucketElems
	hi = lo + bp.bucketElems
	if hi > bp.total {
		hi = bp.total
	}
	return lo, hi
}

// Reset clears the pass state; call once per backward pass.
func (bp *BucketPlan) Reset() {
	copy(bp.remaining, bp.fresh)
	for p := range bp.produced {
		delete(bp.produced, p)
	}
}

// Offset returns p's element offset in the flat vector, and whether p
// belongs to the plan at all (a foreign parameter reports false — the
// caller simply ignores it).
func (bp *BucketPlan) Offset(p *Param) (int, bool) {
	off, ok := bp.offset[p]
	return off, ok
}

// Produce marks p's gradient finalized and returns the indices of the
// buckets that just became complete, in ascending order (usually zero
// or one; a parameter spanning a boundary can complete two). Unknown or
// already-produced parameters return nil.
func (bp *BucketPlan) Produce(p *Param) []int {
	off, ok := bp.offset[p]
	if !ok || bp.produced[p] {
		return nil
	}
	bp.produced[p] = true
	n := p.Grad.Elems()
	var done []int
	for b := off / bp.bucketElems; b*bp.bucketElems < off+n; b++ {
		lo, hi := bp.BucketRange(b)
		if off > lo {
			lo = off
		}
		if off+n < hi {
			hi = off + n
		}
		bp.remaining[b] -= hi - lo
		if bp.remaining[b] == 0 {
			done = append(done, b)
		}
	}
	return done
}

// Unproduced returns the parameters not yet reported this pass, in
// Params() order — the safety sweep the trainer runs after backward so
// a topology the OnGrad hook does not fully cover still ships every
// bucket.
func (bp *BucketPlan) Unproduced() []*Param {
	var out []*Param
	for _, p := range bp.params {
		if !bp.produced[p] {
			out = append(out, p)
		}
	}
	return out
}

// SaltNetState returns a copy of st with every RNG-position entry (the
// Dropout snapshots — the only uint64 entries a NetState holds)
// deterministically perturbed by salt, leaving BatchNorm running-stat
// snapshots untouched. The data-parallel trainer restores each
// microbatch's forward from the same step-start snapshot salted with
// the microbatch index, so every microbatch draws a distinct, replica-
// independent dropout mask while BN statistics stay anchored to the
// step start. salt 0 returns an unperturbed copy, so microbatch 0 —
// the one whose post-forward state the step adopts — replays exactly
// the single-replica schedule. Entries holding equal RNG positions
// (layers sharing one RNG) salt to equal positions, preserving the
// sharing structure.
func SaltNetState(st NetState, salt uint64) NetState {
	out := make(NetState, len(st))
	for i, e := range st {
		if pos, ok := e.(uint64); ok && salt != 0 {
			out[i] = splitmix.Mix(pos ^ salt*splitmix.Gamma)
			continue
		}
		out[i] = e
	}
	return out
}
