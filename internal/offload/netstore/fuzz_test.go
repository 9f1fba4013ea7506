package netstore

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"testing"

	"jpegact/internal/frame"
	"jpegact/internal/offload/transport"
	"jpegact/internal/tensor"
)

// FuzzNetstoreRequest feeds arbitrary bytes through the server's request
// decode and dispatch path — the exact surface a hostile or damaged
// client can reach. The decoder must never panic, never allocate past
// the wire cap, and every decoded request must produce a well-formed
// response; PUT bodies that fail frame validation must never become
// store state. Bodies are drawn from the server's free list, and a GET
// body taken earlier (its reference still held, as a queued reply holds
// it) must stay the bytes its PUT stored through any later DELETE or PUT.
func FuzzNetstoreRequest(f *testing.F) {
	fr := &frame.Frame{
		Codec:   frame.CodecZVC,
		Shape:   tensor.Shape{N: 1, C: 1, H: 2, W: 2},
		Scales:  []float32{1},
		Payload: []byte{1, 2, 3, 4},
	}
	valid := frame.EncodeFrame(fr)

	var put, get, del, op5 bytes.Buffer
	transport.WriteRequest(&put, transport.OpPut, 7, valid)
	transport.WriteRequest(&get, transport.OpGetCoef, 7, nil)
	transport.WriteRequest(&del, transport.OpDelete, 7, nil)
	transport.WriteRequest(&op5, 5, 0, nil) // no such op: refused as malformed
	f.Add(put.Bytes())
	f.Add(append(put.Bytes(), get.Bytes()...))
	f.Add(del.Bytes())
	f.Add(op5.Bytes())
	f.Add(put.Bytes()[:len(put.Bytes())/2]) // cut mid-frame
	f.Add(put.Bytes()[:9])                  // truncated op header
	f.Add([]byte{'J', 'Q', 99, 1})          // bad version
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		srv := New(Config{})
		stored := map[uint64][]byte{} // a copy of each key's accepted PUT
		type taken struct {
			resp response
			want []byte
		}
		var held []taken
		r := bytes.NewReader(raw)
		for {
			req, err := transport.ReadRequest(r, srv.free.Get)
			if err != nil {
				// io.EOF is a clean end-of-stream; anything else must be
				// the typed wire error, which poisons the stream.
				if err != io.EOF && !errors.Is(err, transport.ErrWire) {
					t.Fatalf("untyped decode error: %v", err)
				}
				break
			}
			put := slices.Clone(req.Body) // the server may recycle req.Body
			resp := srv.handleRequest(req)
			if resp.status == transport.StatusOK {
				switch req.Op {
				case transport.OpPut:
					stored[req.Key] = put
				case transport.OpDelete:
					delete(stored, req.Key)
				case transport.OpGet, transport.OpGetCoef:
					if _, err := frame.DecodeFrame(resp.body); err != nil {
						t.Fatalf("server served an invalid frame: %v", err)
					}
					held = append(held, taken{resp, stored[req.Key]})
				}
			}
			for i, h := range held {
				if !bytes.Equal(h.resp.body, h.want) {
					t.Fatalf("GET body %d changed under its held reference", i)
				}
			}
		}
		for _, h := range held {
			srv.release(h.resp.held)
		}
		// Whatever got stored must decode: corrupt PUTs are refused at the
		// door, so resident state is valid frames only.
		for _, e := range srv.entries {
			if _, err := frame.DecodeFrame(e.b); err != nil {
				t.Fatalf("corrupt bytes became store state: %v", err)
			}
		}
		if srv.free.Bytes() > freeListBytes || srv.free.Len() > maxFree {
			t.Fatalf("free list holds %d buffers, %d bytes; bounds %d and %d", srv.free.Len(), srv.free.Bytes(), maxFree, freeListBytes)
		}
	})
}
