// Wire protocol of the networked activation store: a length-prefixed
// request/response exchange over any net.Conn. The payload of a PUT (and
// of a successful GET response) is an internal/frame container — already
// self-describing and CRC32C'd end to end — so the wire format is just
// the frame bytes plus a small fixed op header:
//
//	request  (16 bytes LE + body):
//	  off 0  magic   "JQ"
//	  off 2  version u8  (currently 1)
//	  off 3  op      u8  (OpPut | OpGet | OpGetCoef | OpDelete | OpStats)
//	  off 4  key     u64
//	  off 12 length  u32 (body bytes; frame bytes for OpPut, else 0)
//
//	response (8 bytes LE + body):
//	  off 0  magic   "JS"
//	  off 2  version u8
//	  off 3  status  u8  (StatusOK | StatusNotFound | ...)
//	  off 4  length  u32 (frame bytes for a GET hit, JSON for STATS)
//
// Integrity of the payload itself rides on the frame CRC (the server
// validates PUT bodies before storing; the client validates GET bodies
// before trusting them); the op header is protected by the magic,
// version and length caps below, and any malformed header poisons the
// stream, so both ends drop the connection and the client's
// reconnect+resend retry takes over. ReadRequest/ReadResponse are
// panic-free on arbitrary input and never allocate more than MaxBody.
package transport

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Request/response op codes.
const (
	// OpPut stores the body under the key.
	OpPut uint8 = 1
	// OpGet returns the stored bytes for the key.
	OpGet uint8 = 2
	// OpGetCoef is served exactly as OpGet.
	OpGetCoef uint8 = 3
	// OpDelete releases the stored bytes for the key.
	OpDelete uint8 = 4
	// OpStats returns the server's unified Snapshot as JSON.
	OpStats uint8 = 5
)

// Response status codes.
const (
	// StatusOK: the operation succeeded; the body is the result.
	StatusOK uint8 = 0
	// StatusNotFound: no entry for the key (maps to ErrNotFound).
	StatusNotFound uint8 = 1
	// StatusCorrupt: a PUT body failed server-side frame validation —
	// the bytes were damaged in flight; the client resends.
	StatusCorrupt uint8 = 2
	// StatusBadRequest: malformed op header or unknown op; the server
	// closes the connection after answering (the stream is poisoned).
	StatusBadRequest uint8 = 3
)

// WireVersion is the current protocol version.
const WireVersion = 1

// MaxBody caps a declared body length so a corrupt or hostile header
// can never become an allocation bomb. 64 MiB is far above any frame
// this system produces (a 1 GiB float32 activation compresses well
// under it) and far below the frame container's own 1 GiB payload cap.
const MaxBody = 1 << 26

// Header sizes.
const (
	reqHeaderSize  = 16
	respHeaderSize = 8
)

var (
	reqMagic  = [2]byte{'J', 'Q'}
	respMagic = [2]byte{'J', 'S'}
)

// ErrWire reports a malformed wire message: bad magic, unknown version,
// an over-cap length, or a header cut short mid-stream. The connection
// that produced it cannot be resynchronized and must be dropped; the
// client's reconnect+resend schedule recovers from there. Match with
// errors.Is.
var ErrWire = fmt.Errorf("transport: wire protocol error")

// Request is one decoded client request.
type Request struct {
	Op   uint8
	Key  uint64
	Body []byte
}

// WriteRequest serializes one request to w.
func WriteRequest(w io.Writer, op uint8, key uint64, body []byte) error {
	var h [reqHeaderSize]byte
	h[0], h[1] = reqMagic[0], reqMagic[1]
	h[2] = WireVersion
	h[3] = op
	binary.LittleEndian.PutUint64(h[4:], key)
	binary.LittleEndian.PutUint32(h[12:], uint32(len(body)))
	if _, err := w.Write(h[:]); err != nil {
		return err
	}
	if len(body) > 0 {
		if _, err := w.Write(body); err != nil {
			return err
		}
	}
	return nil
}

// ReadRequest decodes one request from r. A clean end-of-stream between
// requests returns io.EOF; a header cut mid-way, bad magic, unknown
// version or an over-cap length return a typed ErrWire; an interrupted
// body surfaces the underlying read error. Panic-free on arbitrary
// bytes, allocation bounded by MaxBody.
func ReadRequest(r io.Reader) (Request, error) {
	var h [reqHeaderSize]byte
	if _, err := io.ReadFull(r, h[:1]); err != nil {
		return Request{}, err // io.EOF between requests is a clean close
	}
	if _, err := io.ReadFull(r, h[1:]); err != nil {
		return Request{}, fmt.Errorf("%w: truncated op header: %v", ErrWire, err)
	}
	if h[0] != reqMagic[0] || h[1] != reqMagic[1] {
		return Request{}, fmt.Errorf("%w: bad request magic %02x%02x", ErrWire, h[0], h[1])
	}
	if h[2] != WireVersion {
		return Request{}, fmt.Errorf("%w: unsupported version %d", ErrWire, h[2])
	}
	op := h[3]
	if op < OpPut || op > OpStats {
		return Request{}, fmt.Errorf("%w: unknown op %d", ErrWire, op)
	}
	n := binary.LittleEndian.Uint32(h[12:])
	if n > MaxBody {
		return Request{}, fmt.Errorf("%w: %d-byte body exceeds cap %d", ErrWire, n, MaxBody)
	}
	req := Request{Op: op, Key: binary.LittleEndian.Uint64(h[4:])}
	if n > 0 {
		req.Body = make([]byte, n)
		if _, err := io.ReadFull(r, req.Body); err != nil {
			return Request{}, fmt.Errorf("%w: truncated %d-byte body: %v", ErrWire, n, err)
		}
	}
	return req, nil
}

// WriteResponse serializes one response to w.
func WriteResponse(w io.Writer, status uint8, body []byte) error {
	var h [respHeaderSize]byte
	h[0], h[1] = respMagic[0], respMagic[1]
	h[2] = WireVersion
	h[3] = status
	binary.LittleEndian.PutUint32(h[4:], uint32(len(body)))
	if _, err := w.Write(h[:]); err != nil {
		return err
	}
	if len(body) > 0 {
		if _, err := w.Write(body); err != nil {
			return err
		}
	}
	return nil
}

// ReadResponse decodes one response from r, with the same error
// contract as ReadRequest.
func ReadResponse(r io.Reader) (status uint8, body []byte, err error) {
	var h [respHeaderSize]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		if err == io.EOF {
			return 0, nil, fmt.Errorf("%w: connection closed before response: %v", ErrWire, err)
		}
		return 0, nil, fmt.Errorf("%w: truncated response header: %v", ErrWire, err)
	}
	if h[0] != respMagic[0] || h[1] != respMagic[1] {
		return 0, nil, fmt.Errorf("%w: bad response magic %02x%02x", ErrWire, h[0], h[1])
	}
	if h[2] != WireVersion {
		return 0, nil, fmt.Errorf("%w: unsupported version %d", ErrWire, h[2])
	}
	n := binary.LittleEndian.Uint32(h[4:])
	if n > MaxBody {
		return 0, nil, fmt.Errorf("%w: %d-byte body exceeds cap %d", ErrWire, n, MaxBody)
	}
	if n > 0 {
		body = make([]byte, n)
		if _, err := io.ReadFull(r, body); err != nil {
			return 0, nil, fmt.Errorf("%w: truncated %d-byte body: %v", ErrWire, n, err)
		}
	}
	return h[3], body, nil
}
