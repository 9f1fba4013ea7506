package compress

import "sync"

// sync.Pool-backed scratch buffers for the block round trip and for the
// offload codec. The hot path (one call per saved activation per
// training step, in each direction) would otherwise allocate an int8
// SFPR code plane and a quantized or decoded block slice on every call;
// pooling them keeps the parallel path from trading the compute
// bottleneck for a GC bottleneck. Buffers are returned dirty — every
// consumer overwrites all of what it borrowed.

var (
	i8Pool  = sync.Pool{New: func() interface{} { s := make([]int8, 0); return &s }}
	blkPool = sync.Pool{New: func() interface{} { s := make([][64]int8, 0); return &s }}
)

func getI8(n int) *[]int8 {
	p := i8Pool.Get().(*[]int8)
	if cap(*p) < n {
		*p = make([]int8, n)
	}
	*p = (*p)[:n]
	return p
}

func putI8(p *[]int8) { i8Pool.Put(p) }

func getBlocks(n int) *[][64]int8 {
	p := blkPool.Get().(*[][64]int8)
	if cap(*p) < n {
		*p = make([][64]int8, n)
	}
	*p = (*p)[:n]
	return p
}

func putBlocks(p *[][64]int8) { blkPool.Put(p) }
