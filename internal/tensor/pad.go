package tensor

// PadInfo records how a tensor was padded for 8×8 JPEG block alignment so
// that the padding can be stripped after decompression (§III-C).
type PadInfo struct {
	Orig      Shape // shape before padding
	PadRows   int   // zero rows appended to the reshaped NCH dimension
	PadCols   int   // zero columns appended to W
	BlockRows int   // padded height in elements (NCH + PadRows)
	BlockCols int   // padded width in elements (W + PadCols)
}

// PaddedElems returns the element count after padding.
func (p PadInfo) PaddedElems() int { return p.BlockRows * p.BlockCols }

// BlockPadInfo computes the padding geometry for shape s at the given
// block size — the paper's NCH,W padding scheme (Fig. 12) reduced to
// arithmetic: the 4D tensor R^{N×C×H×W} is viewed as R^{NCH×W} with no
// data movement and padded along both reshaped dimensions. No padded
// plane is ever materialized; compress.GatherBlock and ScatterBlock walk
// the layout block by block.
func BlockPadInfo(s Shape, block int) PadInfo {
	rows := s.N * s.C * s.H
	cols := s.W
	pr := (block - rows%block) % block
	pc := (block - cols%block) % block
	return PadInfo{
		Orig:      s,
		PadRows:   pr,
		PadCols:   pc,
		BlockRows: rows + pr,
		BlockCols: cols + pc,
	}
}
