package checkpoint

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/vanetlab/relroute/internal/digest"
)

// FuzzCheckpointRead feeds ReadFile arbitrary bytes from a file in the
// test's temporary directory, twice: as they are, and as the payload of a
// frame with a valid magic, length and checksum, so the bytes also reach
// the JSON decoder and the version check. The committed heap-layout
// fixture and its payload seed the corpus. ReadFile must never panic;
// every error it returns must be ErrMagic, ErrChecksum, ErrVersion or a
// JSON decode error, and a snapshot it returns must carry this build's
// format version. Run it with -fuzzminimizetime 200x: minimizing every new
// input cut from the 2.7 KB fixture otherwise eats a 10 s budget.
func FuzzCheckpointRead(f *testing.F) {
	fixture, err := os.ReadFile(filepath.Join("..", "..", "testdata", "fixture_heapq.ckpt"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	f.Add(fixture[24:])
	f.Add([]byte(`{"version":0}`))
	f.Add([]byte{})
	path := filepath.Join(f.TempDir(), "fuzz.ckpt")
	f.Fuzz(func(t *testing.T, data []byte) {
		framed := make([]byte, 24, 24+len(data))
		copy(framed, fileMagic[:])
		binary.LittleEndian.PutUint64(framed[8:], uint64(len(data)))
		binary.LittleEndian.PutUint64(framed[16:], digest.Sum64(data))
		framed = append(framed, data...)
		for i, raw := range [][]byte{data, framed} {
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			snap, err := ReadFile(path)
			var syntax *json.SyntaxError
			var typ *json.UnmarshalTypeError
			switch {
			case err == nil:
				if snap.Version != FormatVersion {
					t.Errorf("input %d: read a snapshot of version %d", i, snap.Version)
				}
			case errors.Is(err, ErrMagic), errors.Is(err, ErrChecksum), errors.Is(err, ErrVersion),
				errors.As(err, &syntax), errors.As(err, &typ):
			default:
				t.Errorf("input %d: unexpected error %v", i, err)
			}
		}
	})
}
