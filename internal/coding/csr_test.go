package coding

// decodeCSR is DecodeCSRInto into a fresh n-value slice.
func decodeCSR(data []byte, n int) ([]int8, error) {
	out := make([]int8, n)
	if err := DecodeCSRInto(out, data); err != nil {
		return nil, err
	}
	return out, nil
}
