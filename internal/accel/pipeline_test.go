package accel

import "testing"

// Tick-level simulation of the CDU compression pipeline (Fig. 8): the
// crossbar load, SFPR, alignment buffer, two DCT passes, SH, ZVC, and
// the shared collector are each modelled as pipeline stages advanced one
// interconnect cycle at a time with real backpressure. It is the oracle
// of the closed-form Accelerator.cycles that CompressCodes reports and of
// the CyclesPerBlockLoad gpusim reads: the steady-state rate must be one
// block per 8 cycles per CDU with the collector never the bottleneck for
// ≤ 8 CDUs.

// stage is one pipeline stage holding at most Capacity blocks for
// Latency cycles each.
type stage struct {
	name     string
	latency  int
	capacity int
	// entries are (blockID, readyCycle) pairs.
	ids   []int
	ready []int
}

func newStage(name string, latency, capacity int) *stage {
	return &stage{name: name, latency: latency, capacity: capacity}
}

func (s *stage) canAccept() bool { return len(s.ids) < s.capacity }

func (s *stage) push(id, now int) {
	s.ids = append(s.ids, id)
	s.ready = append(s.ready, now+s.latency)
}

// front returns the oldest block if it has finished its latency.
func (s *stage) front(now int) (int, bool) {
	if len(s.ids) == 0 || s.ready[0] > now {
		return 0, false
	}
	return s.ids[0], true
}

func (s *stage) pop() {
	s.ids = s.ids[1:]
	s.ready = s.ready[1:]
}

// cduPipe is one CDU's stage chain.
type cduPipe struct {
	load  *stage // crossbar load: 8 cycles per block (32 B/cycle of 256 B)
	sfpr  *stage // hidden under the load in the RTL; 0-latency pass-through
	align *stage // alignment buffer: 4 blocks
	dct1  *stage // first DCT pass: 4 cycles
	dct2  *stage // second DCT pass: 4 cycles
	shzvc *stage // SH + ZVC: 1 cycle each, fused here
	done  []int  // block IDs waiting for the collector
}

func newCDUPipe() *cduPipe {
	return &cduPipe{
		load:  newStage("load", CyclesPerBlockLoad, 1),
		sfpr:  newStage("sfpr", 0, 1),
		align: newStage("align", 0, 4),
		dct1:  newStage("dct1", 4, 1),
		dct2:  newStage("dct2", 4, 1),
		shzvc: newStage("shzvc", 2, 1),
	}
}

// tick advances the pipe one cycle, draining back-to-front so a block can
// move one stage per cycle.
func (p *cduPipe) tick(now int, nextBlock func() (int, bool)) {
	if id, ok := p.shzvc.front(now); ok {
		p.shzvc.pop()
		p.done = append(p.done, id)
	}
	move := func(from, to *stage) {
		if id, ok := from.front(now); ok && to.canAccept() {
			from.pop()
			to.push(id, now)
		}
	}
	move(p.dct2, p.shzvc)
	move(p.dct1, p.dct2)
	move(p.align, p.dct1)
	move(p.sfpr, p.align)
	move(p.load, p.sfpr)
	if p.load.canAccept() {
		if id, ok := nextBlock(); ok {
			p.load.push(id, now)
		}
	}
}

// PipelineStats summarizes a tick-level run.
type PipelineStats struct {
	Cycles          int
	Blocks          int
	CollectorStalls int // cycles a CDU held a finished block because the collector was busy
}

// SimulatePipeline runs nBlocks through nCDU tick-level pipes with a
// one-block-per-cycle round-robin collector, returning the cycle count.
func SimulatePipeline(nBlocks, nCDU int) PipelineStats {
	if nCDU < 1 {
		nCDU = 1
	}
	pipes := make([]*cduPipe, nCDU)
	for i := range pipes {
		pipes[i] = newCDUPipe()
	}
	next := 0
	feeder := func(cdu int) func() (int, bool) {
		return func() (int, bool) {
			// Round-robin distribution: block i goes to CDU i%nCDU.
			if next >= nBlocks || next%nCDU != cdu {
				return 0, false
			}
			id := next
			next++
			return id, true
		}
	}
	collected := 0
	rr := 0
	stats := PipelineStats{Blocks: nBlocks}
	for cycle := 0; collected < nBlocks; cycle++ {
		if cycle > 1000*nBlocks+1000 {
			panic("accel: pipeline simulation did not converge")
		}
		// Collector: one block per cycle, round-robin over CDUs.
		for probe := 0; probe < nCDU; probe++ {
			c := (rr + probe) % nCDU
			if len(pipes[c].done) > 0 {
				pipes[c].done = pipes[c].done[1:]
				collected++
				rr = (c + 1) % nCDU
				break
			}
		}
		for i, p := range pipes {
			p.tick(cycle, feeder(i))
			if len(p.done) > 1 {
				stats.CollectorStalls++
			}
		}
		stats.Cycles = cycle + 1
	}
	return stats
}

// Decompression direction: the splitter feeds one block per cycle round-
// robin; each CDU runs ZVD → SH⁻¹ → two iDCT passes → SFPR restore. The
// stage latencies mirror the compression pipe, and the crossbar *store*
// rate (8 cycles per 256 B block per CDU) is the drain bound, so the
// backward path sustains the same one-block-per-8-cycles-per-CDU rate.

// decodePipe is one CDU's decompression stage chain.
type decodePipe struct {
	zvd   *stage // ZVD unpack: 1 cycle
	sh    *stage // inverse shift: 1 cycle
	idct1 *stage // first iDCT pass: 4 cycles
	idct2 *stage // second iDCT pass: 4 cycles
	store *stage // crossbar store: 8 cycles per block
	done  int
}

func newDecodePipe() *decodePipe {
	return &decodePipe{
		zvd:   newStage("zvd", 1, 1),
		sh:    newStage("sh", 1, 1),
		idct1: newStage("idct1", 4, 1),
		idct2: newStage("idct2", 4, 1),
		store: newStage("store", CyclesPerBlockLoad, 1),
	}
}

func (p *decodePipe) tick(now int, nextBlock func() (int, bool)) {
	if _, ok := p.store.front(now); ok {
		p.store.pop()
		p.done++
	}
	move := func(from, to *stage) {
		if id, ok := from.front(now); ok && to.canAccept() {
			from.pop()
			to.push(id, now)
		}
	}
	move(p.idct2, p.store)
	move(p.idct1, p.idct2)
	move(p.sh, p.idct1)
	move(p.zvd, p.sh)
	if p.zvd.canAccept() {
		if id, ok := nextBlock(); ok {
			p.zvd.push(id, now)
		}
	}
}

// SimulateDecompressPipeline runs nBlocks through nCDU decompression
// pipes with a one-block-per-cycle splitter, returning the cycle count.
func SimulateDecompressPipeline(nBlocks, nCDU int) PipelineStats {
	if nCDU < 1 {
		nCDU = 1
	}
	pipes := make([]*decodePipe, nCDU)
	for i := range pipes {
		pipes[i] = newDecodePipe()
	}
	next := 0
	stats := PipelineStats{Blocks: nBlocks}
	total := 0
	for cycle := 0; total < nBlocks; cycle++ {
		if cycle > 1000*nBlocks+1000 {
			panic("accel: decompress pipeline did not converge")
		}
		// Splitter: offers the next block to its round-robin target CDU;
		// if that CDU's front stage is busy, the offer stalls this cycle.
		if next < nBlocks {
			target := pipes[next%nCDU]
			if target.zvd.canAccept() {
				target.zvd.push(next, cycle)
				next++
			}
		}
		total = 0
		for _, p := range pipes {
			p.tick(cycle, func() (int, bool) { return 0, false })
			total += p.done
		}
		stats.Cycles = cycle + 1
	}
	return stats
}

func TestPipelineSteadyStateRate(t *testing.T) {
	// The tick-level model must sustain one block per 8 cycles per CDU:
	// the closed-form cycle model (cycles ≈ 8·ceil(n/c) + latency) should
	// match within the fill latency.
	for _, nCDU := range []int{1, 2, 4, 8} {
		n := 128
		st := SimulatePipeline(n, nCDU)
		closed := (&Accelerator{NumCDU: nCDU}).cycles(n)
		diff := st.Cycles - closed
		if diff < -pipelineLatency || diff > pipelineLatency {
			t.Fatalf("nCDU=%d: tick %d vs closed-form %d", nCDU, st.Cycles, closed)
		}
	}
}

func TestPipelineCollectorNeverBottlenecksUpTo8CDUs(t *testing.T) {
	// §III-G: the CDUs produce at most one block per 8 cycles each, and
	// the collector drains one per cycle, so with ≤ 8 CDUs no finished
	// block ever queues behind the collector.
	for _, nCDU := range []int{1, 4, 8} {
		st := SimulatePipeline(96, nCDU)
		if st.CollectorStalls > 0 {
			t.Fatalf("nCDU=%d: %d collector stalls", nCDU, st.CollectorStalls)
		}
	}
}

func TestPipelineCollectorBindsBeyond8CDUs(t *testing.T) {
	// With 16 CDUs the aggregate rate (2 blocks/cycle) exceeds the
	// collector's 1/cycle, so stalls must appear — the reason the design
	// stops at 8 CDUs per collector.
	st := SimulatePipeline(256, 16)
	if st.CollectorStalls == 0 {
		t.Fatal("16 CDUs should overwhelm a 1 block/cycle collector")
	}
	// And throughput saturates near 1 block/cycle instead of 2.
	perBlock := float64(st.Cycles) / 256
	if perBlock < 0.9 {
		t.Fatalf("throughput %v blocks/cycle exceeds the collector rate", 1/perBlock)
	}
}

func TestPipelineTinyRuns(t *testing.T) {
	st := SimulatePipeline(1, 4)
	if st.Cycles < CyclesPerBlockLoad || st.Cycles > 4*pipelineLatency {
		t.Fatalf("single-block latency %d", st.Cycles)
	}
	if SimulatePipeline(0, 4).Cycles != 0 {
		t.Fatal("zero blocks should take zero cycles")
	}
}

func TestDecompressPipelineRate(t *testing.T) {
	// The backward path must sustain the same rate as compression: the
	// crossbar store bound of one block per 8 cycles per CDU.
	for _, nCDU := range []int{1, 2, 4} {
		n := 96
		st := SimulateDecompressPipeline(n, nCDU)
		closed := (&Accelerator{NumCDU: nCDU}).cycles(n)
		diff := st.Cycles - closed
		if diff < -2*pipelineLatency || diff > 2*pipelineLatency {
			t.Fatalf("nCDU=%d: tick %d vs closed-form %d", nCDU, st.Cycles, closed)
		}
	}
}

func TestDecompressPipelineTiny(t *testing.T) {
	if SimulateDecompressPipeline(0, 4).Cycles != 0 {
		t.Fatal("zero blocks should take zero cycles")
	}
	st := SimulateDecompressPipeline(1, 2)
	if st.Cycles < CyclesPerBlockLoad {
		t.Fatalf("single-block latency %d below store time", st.Cycles)
	}
}
