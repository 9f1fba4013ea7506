package transport

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestWireRequestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	body := []byte{1, 2, 3, 4, 5}
	if err := WriteRequest(&buf, OpPut, 0xdeadbeefcafe, body); err != nil {
		t.Fatal(err)
	}
	req, err := ReadRequest(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if req.Op != OpPut || req.Key != 0xdeadbeefcafe || !bytes.Equal(req.Body, body) {
		t.Fatalf("request %+v", req)
	}
	// A clean end-of-stream between requests is io.EOF, not a wire error.
	if _, err := ReadRequest(&buf, nil); err != io.EOF {
		t.Fatalf("want io.EOF between requests, got %v", err)
	}
}

func TestWireResponseRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteResponse(&buf, StatusNotFound, nil); err != nil {
		t.Fatal(err)
	}
	status, body, err := ReadResponse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if status != StatusNotFound || body != nil {
		t.Fatalf("status %d body %v", status, body)
	}
}

func TestWireTruncatedOpHeaderIsTyped(t *testing.T) {
	var full bytes.Buffer
	if err := WriteRequest(&full, OpGet, 7, nil); err != nil {
		t.Fatal(err)
	}
	// Every cut inside the header (after the first byte) is a typed
	// ErrWire, never a panic or a silent io error.
	for cut := 1; cut < reqHeaderSize; cut++ {
		_, err := ReadRequest(bytes.NewReader(full.Bytes()[:cut]), nil)
		if !errors.Is(err, ErrWire) {
			t.Fatalf("cut at %d: want ErrWire, got %v", cut, err)
		}
	}
}

func TestWireBadMagicVersionOpAreTyped(t *testing.T) {
	mk := func(mut func(h []byte)) []byte {
		var buf bytes.Buffer
		if err := WriteRequest(&buf, OpGet, 7, nil); err != nil {
			t.Fatal(err)
		}
		b := buf.Bytes()
		mut(b)
		return b
	}
	cases := map[string][]byte{
		"magic":    mk(func(h []byte) { h[0] = 'X' }),
		"version":  mk(func(h []byte) { h[2] = 99 }),
		"op-zero":  mk(func(h []byte) { h[3] = 0 }),
		"op-high":  mk(func(h []byte) { h[3] = 200 }),
		"op-stats": mk(func(h []byte) { h[3] = 5 }),
	}
	for name, b := range cases {
		if _, err := ReadRequest(bytes.NewReader(b), nil); !errors.Is(err, ErrWire) {
			t.Fatalf("%s: want ErrWire, got %v", name, err)
		}
	}
}

func TestWireOversizedLengthRefusedBeforeAllocation(t *testing.T) {
	// A corrupt length field far over MaxBody must be refused from the
	// header alone — no attempt to allocate or read the body.
	var buf bytes.Buffer
	if err := WriteRequest(&buf, OpPut, 1, nil); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[12], b[13], b[14], b[15] = 0xff, 0xff, 0xff, 0xff
	if _, err := ReadRequest(bytes.NewReader(b), nil); !errors.Is(err, ErrWire) {
		t.Fatalf("want ErrWire, got %v", err)
	}

	var rbuf bytes.Buffer
	if err := WriteResponse(&rbuf, StatusOK, nil); err != nil {
		t.Fatal(err)
	}
	rb := rbuf.Bytes()
	rb[4], rb[5], rb[6], rb[7] = 0xff, 0xff, 0xff, 0xff
	if _, _, err := ReadResponse(bytes.NewReader(rb)); !errors.Is(err, ErrWire) {
		t.Fatalf("response: want ErrWire, got %v", err)
	}
}

func TestWireTruncatedBodySurfacesTyped(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRequest(&buf, OpPut, 3, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()[:reqHeaderSize+40] // connection died mid-frame
	if _, err := ReadRequest(bytes.NewReader(b), nil); !errors.Is(err, ErrWire) {
		t.Fatalf("want ErrWire, got %v", err)
	}
}

func TestParseAddr(t *testing.T) {
	cases := []struct {
		in, network, addr string
		wantErr           bool
	}{
		{"unix:/tmp/store.sock", "unix", "/tmp/store.sock", false},
		{"tcp:localhost:7070", "tcp", "localhost:7070", false},
		{"127.0.0.1:7070", "tcp", "127.0.0.1:7070", false},
		{"nonsense", "", "", true},
	}
	for _, c := range cases {
		network, addr, err := ParseAddr(c.in)
		if c.wantErr != (err != nil) || network != c.network || addr != c.addr {
			t.Fatalf("ParseAddr(%q) = %q %q %v", c.in, network, addr, err)
		}
	}
}
