package codec

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"jpegact/internal/compress"
	"jpegact/internal/quant"
	"jpegact/internal/tensor"
)

// methodGoldenFile holds one row per Table I method × activation kind ×
// golden shape: what compressing goldenTensor through the method reports,
// as the compressed byte count and the SHA-256 of the recovered float bits
// (of the sign mask when only a mask is kept). The rows were recorded from
// the method implementations as they stood before every method ran through
// a frame codec, and every row but eighteen is theirs bit for bit. The
// eighteen are the JPEG methods' gradient rows at the three tileable
// shapes: gradients are no Table II kind, and the in-place methods put
// them through the 8×8 transform where the offload store's row (pinned by
// goldenTable) gives them the default row, SFPR+ZVC; the one statement of
// the policy kept the store's. UPDATE_GOLDEN=1 rewrites the file. Do not
// regenerate it to make a test pass.
var methodGoldenFile = filepath.Join("testdata", "methods.golden")

// methodGoldenEpoch is the training epoch every row compresses at: late
// enough that optL5H has switched to its optH table.
const methodGoldenEpoch = 5

// goldenMethods is every Table I method plus the CDU-backed JPEG-ACT.
func goldenMethods() []compress.Method {
	return append(compress.Standard(), compress.NewHardwareJPEGACT(quant.Fixed(quant.OptL()), 4))
}

// methodGoldenRows compresses every golden case's tensor (the optL half of
// goldenCases: the method carries its own table) through every method.
func methodGoldenRows() []string {
	var rows []string
	for _, m := range goldenMethods() {
		for i, c := range goldenCases() {
			if c.dqt != "optL" {
				continue
			}
			r := compressWith(m, goldenTensor(c, i), c.kind)
			h := sha256.New()
			if r.Recovered == nil {
				mask := make([]byte, len(r.Mask))
				for j, b := range r.Mask {
					if b {
						mask[j] = 1
					}
				}
				h.Write(mask)
			} else {
				buf := make([]byte, 4*len(r.Recovered.Data))
				for j, v := range r.Recovered.Data {
					binary.LittleEndian.PutUint32(buf[4*j:], math.Float32bits(v))
				}
				h.Write(buf)
			}
			name := fmt.Sprintf("%s/%v/%dx%dx%dx%d", m.Name(), c.kind, c.shape.N, c.shape.C, c.shape.H, c.shape.W)
			rows = append(rows, fmt.Sprintf("%s %d %s", strings.ReplaceAll(name, " ", "_"), r.CompressedBytes, hex.EncodeToString(h.Sum(nil))))
		}
	}
	return rows
}

// compressWith is the method's round trip through its frame codec.
func compressWith(m compress.Method, x *tensor.Tensor, kind compress.Kind) compress.Result {
	return For(m, methodGoldenEpoch).Compress(kind, x)
}

func TestMethodGoldenTable(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("method goldens were recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	got := methodGoldenRows()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(methodGoldenFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(methodGoldenFile)
	if err != nil {
		t.Fatalf("%v (UPDATE_GOLDEN=1 writes it)", err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	if len(got) != len(want) {
		t.Fatalf("%d rows, %d golden rows", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("row %d:\n\tgot  %s\n\twant %s", i, got[i], want[i])
		}
	}
}
