// Package hw is a structural area/power cost model of the JPEG-ACT CDU
// (DESIGN.md substitution 5): each pipeline component is costed as
// primitive-circuit counts (multipliers, adders, shifters, registers,
// SRAM) times per-primitive area/power at a 15 nm-class node with the 50%
// wire overhead the paper applies, calibrated against the Synopsys
// numbers of Table IV. Design totals (Table V) compose four CDUs plus
// the shared collector/splitter and buffers.
package hw

// Primitive circuit costs (15 nm-scaled, 50% wire overhead folded in).
// Area in µm², power in mW at the interconnect clock.
const (
	areaMult16   = 1050.0 // 16-bit fixed-point multiplier (DCT datapath)
	powerMult16  = 1.30
	areaMultFP32 = 4200.0 // 2-stage fp32 multiplier (SFPR SPE)
	powerFP32    = 3.30
	areaMult8    = 180.0 // 8-bit multiplier (DIV quantizer)
	powerMult8   = 0.21
	areaAdd16    = 42.0
	powerAdd16   = 0.052
	areaShift8   = 24.0 // 8-bit 3-position barrel shifter (SH)
	powerShift8  = 0.037
	areaRegByte  = 28.0 // pipeline register, per byte
	powerRegByte = 0.024
	areaSRAMByte = 95.0 // small dual-ported SRAM, per byte
	powerSRAM    = 0.055
	areaCtl      = 9000.0 // per-component control FSM
	powerCtl     = 4.0
)

// Component is one synthesized block of the accelerator.
type Component struct {
	Name    string
	AreaUM2 float64
	PowerMW float64
}

// SFPRUnit costs the 8-SPE SFPR stage (Fig. 11): one fp32 multiplier and
// int/float converters per SPE plus staging registers.
func SFPRUnit() Component {
	const spes = 8
	conv := 2 * areaAdd16 * 4 // float_to_int + int_to_float datapaths
	area := spes*(areaMultFP32+conv) + 2*32*areaRegByte + areaCtl
	power := spes*(powerFP32+8*powerAdd16) + 2*32*powerRegByte + powerCtl
	return Component{"SFPR", area, power}
}

// DCTUnit costs the combined DCT + iDCT: eight 8-point LLM units per
// direction (11 multipliers, 29 adders each), two-pass transpose
// registers, and pipeline staging (§III-D: 88 multipliers per direction).
func DCTUnit() Component {
	const dirs = 2 // DCT and iDCT
	mults := 11 * 8 * dirs
	adds := 29 * 8 * dirs
	transposeBytes := 64 * 2 * dirs // 8×8 of 16-bit, per direction
	area := float64(mults)*areaMult16 + float64(adds)*areaAdd16 +
		float64(transposeBytes)*areaRegByte + 2*areaCtl
	power := float64(mults)*powerMult16 + float64(adds)*powerAdd16 +
		float64(transposeBytes)*powerRegByte + 2*powerCtl
	return Component{"DCT+iDCT", area, power}
}

// DIVUnit costs the JPEG-BASE division quantizer: 64 parallel 8-bit
// multipliers (divide via reciprocal) for each direction.
func DIVUnit() Component {
	area := 64*areaMult8 + 64*areaRegByte/4
	power := 64*powerMult8 + 64*powerRegByte/4
	return Component{"Quantize (DIV)", area, power}
}

// SHUnit costs the JPEG-ACT shift quantizer: 64 parallel 3-bit barrel
// shifters (Fig. 14) — the 88% area reduction over DIV.
func SHUnit() Component {
	area := 64 * areaShift8
	power := 64 * powerShift8
	return Component{"Quantize (SH)", area, power}
}

// RLEUnit costs the JPEG entropy coder and decoder: Huffman code tables
// in SRAM, barrel shifters for bit packing, and run-length state.
func RLEUnit() Component {
	const tableBytes = 2 * (12 + 162) * 2 // DC+AC code tables, enc+dec
	const barrel = 24                     // 32-bit barrel shifters
	area := tableBytes*areaSRAMByte + barrel*16*areaAdd16 + 4*areaCtl +
		64*areaRegByte
	// The entropy coder is bit-serial with near-100% toggle activity on
	// its shift network; the variable-length datapath dominates dynamic
	// power well beyond its gate count.
	const serialActivityMW = 100.0
	power := tableBytes*powerSRAM + barrel*16*powerAdd16 + 4*powerCtl +
		64*powerRegByte + serialActivityMW
	return Component{"Coding (RLE+RLD)", area, power}
}

// ZVCUnit costs the zero-value coder/decoder: mask reduction tree and a
// 64-byte packing crossbar — far simpler than the Huffman machinery.
func ZVCUnit() Component {
	area := 64*areaAdd16 + 64*areaRegByte*4 + areaCtl
	power := 64*powerAdd16 + 64*powerRegByte*4 + powerCtl
	return Component{"Coding (ZVC+ZVD)", area, power}
}

// CollectorSplitter costs the stream aggregation units (Fig. 15): the
// 256 B IFIFO and OFIFO, variable-shift alignment networks, and the
// round-robin mux across four CDUs.
func CollectorSplitter() Component {
	const fifoBytes = 2 * 256
	const alignNet = 72 * 8 // byte-steering muxes ≈ adder-equivalents
	area := fifoBytes*areaSRAMByte + alignNet*areaAdd16 + 8*areaCtl +
		2*128*areaRegByte
	// The FIFOs shift up to 72 B per cycle through the alignment network
	// at full activity; add the measured-style dynamic term.
	const fifoActivityMW = 70.0
	power := fifoBytes*powerSRAM + alignNet*powerAdd16 + 8*powerCtl +
		2*128*powerRegByte + fifoActivityMW
	return Component{"Collector+Splitter", area, power}
}

// AlignmentBuffer costs one CDU's 256 B alignment buffer plus the 64 B
// DQT store (§III-C).
func AlignmentBuffer() Component {
	bytes := 256.0 + 64
	return Component{"Alignment buffer", bytes * areaSRAMByte, bytes * powerSRAM}
}

// TableIV returns the per-component synthesis table in paper order.
func TableIV() []Component {
	return []Component{
		SFPRUnit(),
		DCTUnit(),
		DIVUnit(),
		SHUnit(),
		RLEUnit(),
		ZVCUnit(),
		CollectorSplitter(),
	}
}

// Design is a full accelerator configuration (Table V): 4 CDUs of the
// given per-CDU components plus the shared collector/splitter, buffers
// included, crossbar excluded.
type Design struct {
	Name        string
	AreaMM2     float64
	PowerW      float64
	Compression float64 // average ratio
	OffloadGBs  float64 // effective offload rate
}

const numCDU = 4

func design(name string, perCDU []Component, ratio, offloadGBs float64) Design {
	var area, power float64
	for _, c := range perCDU {
		area += float64(c.AreaUM2 * numCDU)
		power += float64(c.PowerMW * numCDU)
	}
	buf := AlignmentBuffer()
	area += buf.AreaUM2 * numCDU
	power += buf.PowerMW * numCDU
	cs := CollectorSplitter()
	area += cs.AreaUM2
	power += cs.PowerMW
	return Design{
		Name:        name,
		AreaMM2:     area / 1e6,
		PowerW:      power / 1e3,
		Compression: ratio,
		OffloadGBs:  offloadGBs,
	}
}

// TableV returns the four design points compared in Table V. Compression
// ratios and offload rates follow the paper's measured averages (offload
// = 12.8 GB/s PCIe × ratio).
func TableV() []Design {
	return []Design{
		design("cDMA+", []Component{ZVCUnit()}, 1.3, 12.8*1.3),
		design("SFPR", []Component{SFPRUnit()}, 4.0, 12.8*4.0),
		design("JPEG-BASE (jpeg80)", []Component{SFPRUnit(), DCTUnit(), DIVUnit(), RLEUnit()}, 5.8, 12.8*5.8),
		design("JPEG-ACT (optL5H)", []Component{SFPRUnit(), DCTUnit(), SHUnit(), ZVCUnit()}, 8.5, 12.8*8.5),
	}
}

// Titan V reference envelope for the <1% claims.
const (
	TitanVAreaMM2 = 815.0
	TitanVPowerW  = 250.0
)

// GPUFraction returns the design's share of the Titan V area and power.
func (d Design) GPUFraction() (areaFrac, powerFrac float64) {
	return d.AreaMM2 / TitanVAreaMM2, d.PowerW / TitanVPowerW
}
