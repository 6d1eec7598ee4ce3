package trace

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// specialFloats are the values a text round trip would mangle.
var specialFloats = []float64{
	math.NaN(),
	math.Float64frombits(0x7ff8_dead_beef_0001), // quiet NaN with a payload
	math.Float64frombits(0xfff0_0000_0000_0001), // negative signalling NaN
	math.Copysign(0, -1), 0,
	math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.Float64frombits(0x000f_ffff_ffff_ffff), // subnormals
	math.MaxFloat64, 99.000000000000014,
}

// checkRoundTrip puts vals as scalars and requires every bit back.
func checkRoundTrip(t *testing.T, c *Cache, vals []float64) {
	t.Helper()
	for i, v := range vals {
		k := Key([]byte{'f', byte(i), byte(i >> 8)})
		c.PutFloat(k, v)
		if got, ok := c.GetFloat(k); !ok || math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("scalar %#x came back as %#x (hit %v)", math.Float64bits(v), math.Float64bits(got), ok)
		}
	}
}

// TestCachePutGetBitExact pins that a scalar entry returns the exact bits
// it was given.
func TestCachePutGetBitExact(t *testing.T) {
	c, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	checkRoundTrip(t, c, specialFloats)
	if c.Errors() != 0 {
		t.Errorf("%d errors on well-formed entries", c.Errors())
	}
}

// FuzzCacheEntry writes arbitrary bytes into an entry file and reads them
// as a scalar: the read is a hit if and only if the entry is in
// PutFloat's form, 16 hex digits and a newline, and then gives the value
// those digits spell; any other present entry is a miss that deletes it
// and counts an error, never a panic. The leading bytes, as float bit
// patterns, must then round-trip through PutFloat exactly. The corpus is
// seeded with a real grid-cell entry, a 657-byte JSON table, 33 hex-digit
// bytes (fills-read-buffer), and a scalar entry followed by more bytes
// (scalar-then-more), which must not be served cut off.
func FuzzCacheEntry(f *testing.F) {
	seeds, err := filepath.Glob("testdata/entries/*")
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed entries: %v", err)
	}
	for _, name := range seeds {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	dir := f.TempDir() // one per fuzzing process, whose calls run one at a time
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := NewCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		key := Key([]byte("entry"))
		if err := os.MkdirAll(filepath.Dir(c.path(key)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(c.path(key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var want uint64
		inForm := len(data) == 17 && data[16] == '\n'
		if inForm {
			want, err = strconv.ParseUint(string(data[:16]), 16, 64)
			inForm = err == nil
		}
		v, ok := c.GetFloat(key)
		switch {
		case ok != inForm:
			t.Fatalf("GetFloat hit %v on an entry %q (in PutFloat's form: %v)", ok, data, inForm)
		case ok && math.Float64bits(v) != want:
			t.Fatalf("GetFloat read %#x from an entry %q", math.Float64bits(v), data)
		case ok:
			if c.Errors() != 0 {
				t.Fatalf("a hit with Errors() = %d", c.Errors())
			}
		default:
			if c.Errors() != 1 {
				t.Fatalf("GetFloat missed on a present entry with Errors() = %d, want 1", c.Errors())
			}
			if _, err := os.Stat(c.path(key)); !os.IsNotExist(err) {
				t.Fatalf("GetFloat missed and left the entry: %v", err)
			}
		}

		var vals []float64 // up to 8: every write is a file, and any bits will do
		for b := data; len(b) >= 8 && len(vals) < 8; b = b[8:] {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(b)))
		}
		checkRoundTrip(t, c, vals)
	})
}
