package accel

import (
	"errors"
	"math/bits"

	"jpegact/internal/dct"
	"jpegact/internal/quant"
)

// Accelerator models the JPEG-ACT offload engine: NumCDU compression/
// decompression units fed round-robin from the crossbar, draining through
// the collector into 128 B DMA packets (Figs. 8 and 15).
type Accelerator struct {
	NumCDU int
	Logs   [64]uint8 // SH log-DQT (3-bit entries)
}

// New builds an accelerator with n CDUs and the given DQT snapped to the
// SH unit's power-of-two form.
func New(n int, d quant.DQT) *Accelerator {
	return &Accelerator{NumCDU: n, Logs: d.ShiftLogs()}
}

// PacketBytes is the DMA packet size popped from the collector IFIFO.
const PacketBytes = 128

// Pipeline timing (interconnect cycles), per §III:
//   - the crossbar delivers one 256 B fp32 block per 8 cycles per CDU
//     (CyclesPerBlockLoad, which gpusim.TitanV reads as its CDU rate);
//   - SFPR converts 8 values/cycle (hidden under the load);
//   - the DCT unit takes 4 cycles per pass, two passes;
//   - SH and ZVC take one cycle each;
//   - the collector accepts one block per cycle (8× the per-CDU rate, so
//     it never binds for ≤ 8 CDUs).
const (
	CyclesPerBlockLoad = 8
	pipelineLatency    = 8 + 4 + 4 + 1 + 1 + 1
)

// Stream is a compressed activation stream as it crosses PCIe.
type Stream struct {
	Packets [][]byte // fixed 128 B DMA packets; the last one zero-padded
	Blocks  int
	// Bytes is the true compressed size before packet padding.
	Bytes  int
	Cycles int // compression-side cycles
}

// ErrStream reports a CDU payload whose blocks do not exactly fill it.
var ErrStream = errors.New("accel: corrupt CDU stream")

// Payload returns the stream's bytes in the order the DMA carries them,
// without the last packet's padding: Bytes long.
func (s *Stream) Payload() []byte {
	out := make([]byte, 0, len(s.Packets)*PacketBytes)
	for _, p := range s.Packets {
		out = append(out, p...)
	}
	return out[:s.Bytes]
}

// StreamOf rebuilds the packet stream of nb blocks from its Payload. It
// first walks the payload block by block through the mask bytes the
// splitter peeks, so a payload whose blocks do not exactly fill it is
// rejected before the splitter sees it.
func StreamOf(payload []byte, nb int) (*Stream, error) {
	p := 0
	for b := 0; b < nb; b++ {
		if p+8 > len(payload) {
			return nil, ErrStream
		}
		p += blockSizeFromMask(payload[p : p+8])
	}
	if p != len(payload) {
		return nil, ErrStream
	}
	s := &Stream{Blocks: nb, Bytes: len(payload)}
	for off := 0; off < len(payload); off += PacketBytes {
		pkt := make([]byte, PacketBytes)
		copy(pkt, payload[off:])
		s.Packets = append(s.Packets, pkt)
	}
	return s, nil
}

// encodeBlockZVC packs one quantized block in the hardware ZVC format:
// eight mask bytes first (so the splitter can peek the next block's size,
// Fig. 15), then the packed non-zero bytes. Worst case 72 B.
func encodeBlockZVC(q *[64]int8) []byte {
	out := make([]byte, 8, 72)
	for g := 0; g < 8; g++ {
		var mask byte
		for j := 0; j < 8; j++ {
			if q[g*8+j] != 0 {
				mask |= 1 << uint(j)
			}
		}
		out[g] = mask
	}
	for _, v := range q {
		if v != 0 {
			out = append(out, byte(v))
		}
	}
	return out
}

// blockSizeFromMask returns the encoded size given the 8 mask bytes.
func blockSizeFromMask(mask []byte) int {
	n := 8
	for _, m := range mask {
		n += bits.OnesCount8(m)
	}
	return n
}

// decodeBlockZVC reverses encodeBlockZVC.
func decodeBlockZVC(data []byte) [64]int8 {
	var q [64]int8
	p := 8
	for g := 0; g < 8; g++ {
		mask := data[g]
		for j := 0; j < 8; j++ {
			if mask&(1<<uint(j)) != 0 {
				q[g*8+j] = int8(data[p])
				p++
			}
		}
	}
	return q
}

// compressCodeBlock runs one block of SFPR codes (the alignment-buffer
// contents) through the DCT → SH → ZVC stages.
func (a *Accelerator) compressCodeBlock(codes *[64]int8) ([]byte, [64]int8) {
	var ib dct.IntBlock
	for i, v := range codes {
		ib[i] = int32(v)
	}
	dct.FixedForward8x8(&ib)
	var q [64]int8
	quant.ShiftQuantize((*[64]int32)(&ib), &a.Logs, &q)
	return encodeBlockZVC(&q), q
}

// CompressCodes runs blocks of already-SFPR-quantized int8 codes through
// the DCT → SH → ZVC stages and the collector. This is the entry the
// multi-channel offload path uses: SFPR runs per channel upstream and the
// alignment buffer contents may straddle channel boundaries.
func (a *Accelerator) CompressCodes(blocks [][64]int8) *Stream {
	coded := make([][]byte, len(blocks))
	for bi := range blocks {
		coded[bi], _ = a.compressCodeBlock(&blocks[bi])
	}
	return a.collect(coded)
}

// collect marshals per-block encodings through the collector IFIFO into
// 128 B packets.
func (a *Accelerator) collect(coded [][]byte) *Stream {
	s := &Stream{Blocks: len(coded)}
	ifuifo := NewByteFIFO(256)
	for bi := range coded {
		enc := coded[bi]
		// The IFIFO pops a 128 B packet whenever full enough; pushes of up
		// to 72 B always fit a 256 B FIFO drained at 128 B granularity.
		for !ifuifo.CanPush(len(enc)) {
			s.Packets = append(s.Packets, mustPop(ifuifo, PacketBytes))
		}
		ifuifo.Push(enc)
		s.Bytes += len(enc)
		for ifuifo.Len() >= PacketBytes {
			s.Packets = append(s.Packets, mustPop(ifuifo, PacketBytes))
		}
	}
	// Flush the tail as a padded packet.
	if n := ifuifo.Len(); n > 0 {
		tail, _ := ifuifo.Pop(n)
		padded := make([]byte, PacketBytes)
		copy(padded, tail)
		s.Packets = append(s.Packets, padded)
	}
	s.Cycles = a.cycles(len(coded))
	return s
}

func mustPop(f *ByteFIFO, n int) []byte {
	b, err := f.Pop(n)
	if err != nil {
		panic(err)
	}
	return b
}

// cycles returns the pipeline time for n blocks: the crossbar load rate
// (8 cycles per block per CDU) plus the fill latency. The collector's one
// block/cycle drain never binds for ≤ 8 CDUs.
func (a *Accelerator) cycles(n int) int {
	if n == 0 {
		return 0
	}
	c := a.NumCDU
	if c < 1 {
		c = 1
	}
	perCDU := (n + c - 1) / c
	return perCDU*CyclesPerBlockLoad + pipelineLatency
}

// DecompressCodes splits the packet stream back into quantized blocks and
// inverts the SH and DCT stages, returning recovered int8 code blocks —
// the inverse of CompressCodes.
func (a *Accelerator) DecompressCodes(s *Stream) ([][64]int8, int) {
	out := make([][64]int8, 0, s.Blocks)
	for _, q := range a.split(s) {
		var coef [64]int32
		quant.ShiftDequantize(&q, &a.Logs, &coef)
		ib := dct.IntBlock(coef)
		dct.FixedInverse8x8(&ib)
		var rec [64]int8
		for i, v := range ib {
			if v > 127 {
				v = 127
			}
			if v < -128 {
				v = -128
			}
			rec[i] = int8(v)
		}
		out = append(out, rec)
	}
	return out, a.cycles(s.Blocks)
}

// split walks the packet stream through the splitter OFIFO, yielding the
// quantized blocks in order.
func (a *Accelerator) split(s *Stream) [][64]int8 {
	ofifo := NewByteFIFO(256)
	next := 0
	out := make([][64]int8, 0, s.Blocks)
	for len(out) < s.Blocks {
		for {
			if mask, err := ofifo.Peek(8); err == nil {
				if ofifo.Len() >= blockSizeFromMask(mask) {
					break
				}
			}
			if next >= len(s.Packets) {
				panic("accel: packet stream exhausted mid-block")
			}
			ofifo.Push(s.Packets[next])
			next++
		}
		mask, _ := ofifo.Peek(8)
		data := mustPop(ofifo, blockSizeFromMask(mask))
		out = append(out, decodeBlockZVC(data))
	}
	return out
}
