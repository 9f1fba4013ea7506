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
// block size without touching any data — the paper's NCH,W padding
// scheme (Fig. 12) reduced to arithmetic. Callers that only need the
// geometry (container decode, pooled pipeline scratch) use this instead
// of materializing a tensor.
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

// PadForBlocks reshapes t to a 2D (NCH)×W matrix and zero-pads both
// dimensions up to a multiple of block (8 for JPEG). This follows the
// paper's NCH,W padding scheme: the 4D tensor R^{N×C×H×W} is viewed as
// R^{NCH×W} with no data movement, then padded along both reshaped
// dimensions (Fig. 12). The returned slice is row-major
// BlockRows×BlockCols.
func PadForBlocks(t *Tensor, block int) ([]float32, PadInfo) {
	s := t.Shape
	rows := s.N * s.C * s.H
	cols := s.W
	info := BlockPadInfo(s, block)
	pr, pc := info.PadRows, info.PadCols
	if pr == 0 && pc == 0 {
		// Already aligned: the reshape is free, reuse the data.
		return t.Data, info
	}
	out := make([]float32, info.BlockRows*info.BlockCols)
	for r := 0; r < rows; r++ {
		copy(out[r*info.BlockCols:r*info.BlockCols+cols], t.Data[r*cols:(r+1)*cols])
	}
	return out, info
}

// UnpadFromBlocks reverses PadForBlocks, producing a tensor with the
// original shape from the padded row-major matrix.
func UnpadFromBlocks(padded []float32, info PadInfo) *Tensor {
	s := info.Orig
	out := New(s.N, s.C, s.H, s.W)
	rows := s.N * s.C * s.H
	cols := s.W
	if info.PadRows == 0 && info.PadCols == 0 {
		copy(out.Data, padded[:rows*cols])
		return out
	}
	for r := 0; r < rows; r++ {
		copy(out.Data[r*cols:(r+1)*cols], padded[r*info.BlockCols:r*info.BlockCols+cols])
	}
	return out
}
