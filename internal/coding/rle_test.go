package coding

// Simple zero run-length encoding (§II-B3): the stream is a sequence of
// (zeroRun, value) pairs where zeroRun is the number of zeros preceding
// value. Runs longer than 255 emit (255, 0) continuation pairs. The paper
// notes this performs poorly on randomly-distributed zeros — reproduced
// here as a baseline coder.

// EncodeRLE compresses vals with zero run-length coding.
func EncodeRLE(vals []int8) []byte {
	out := make([]byte, 0, len(vals)/2+8)
	run := 0
	for _, v := range vals {
		if v == 0 {
			run++
			continue
		}
		for run > 255 {
			out = append(out, 255, 0)
			run -= 255
		}
		out = append(out, byte(run), byte(v))
		run = 0
	}
	// Trailing zeros: encode as continuation pairs plus a final marker.
	for run > 255 {
		out = append(out, 255, 0)
		run -= 255
	}
	if run > 0 {
		out = append(out, byte(run-1), 0)
	}
	return out
}

// DecodeRLE reverses EncodeRLE; n is the original value count.
func DecodeRLE(data []byte, n int) ([]int8, error) {
	if len(data)%2 != 0 {
		return nil, ErrCorrupt
	}
	out := make([]int8, 0, n)
	for p := 0; p < len(data); p += 2 {
		run := int(data[p])
		v := int8(data[p+1])
		if v == 0 {
			// Continuation pair (255 zeros) or trailing marker (run-1 zeros).
			if run == 255 && p+2 < len(data) {
				for i := 0; i < 255; i++ {
					out = append(out, 0)
				}
				continue
			}
			for i := 0; i <= run; i++ {
				out = append(out, 0)
			}
			continue
		}
		for i := 0; i < run; i++ {
			out = append(out, 0)
		}
		out = append(out, v)
	}
	if len(out) != n {
		return nil, ErrCorrupt
	}
	return out, nil
}
