package trace

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
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
// as a scalar and as raw bytes: a scalar read is a value or a miss, never
// a panic, and a miss on a present entry deletes it and counts an error;
// get hands its decoder the very bytes on disk, and a decoder's refusal
// is such a miss too. The leading bytes, as float bit patterns, must then
// round-trip through PutFloat exactly. The corpus is seeded with a real
// grid-cell entry, a 657-byte JSON entry GetFloat refuses, and an entry
// one byte longer than the buffer an entry is read into
// (fills-read-buffer), which must not be served cut off.
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
		write := func() {
			if err := os.MkdirAll(filepath.Dir(c.path(key)), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(c.path(key), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		// miss checks a getter's miss on the present entry.
		miss := func(getter string, errors uint64) {
			if c.Errors() != errors {
				t.Fatalf("%s missed on a present entry with Errors() = %d, want %d", getter, c.Errors(), errors)
			}
			if _, err := os.Stat(c.path(key)); !os.IsNotExist(err) {
				t.Fatalf("%s missed and left the entry: %v", getter, err)
			}
		}

		write()
		if _, ok := c.GetFloat(key); !ok {
			miss("GetFloat", 1)
		}
		errs := c.Errors()
		write()
		var got []byte
		if !c.get(key, func(b []byte) bool { got = b; return true }) || !bytes.Equal(got, data) {
			t.Fatalf("get handed its decoder %q for an entry holding %q", got, data)
		}
		if c.get(key, func([]byte) bool { return false }) {
			t.Fatal("get hit on an entry its decoder refused")
		}
		miss("get", errs+1)

		var vals []float64 // up to 8: every write is a file, and any bits will do
		for b := data; len(b) >= 8 && len(vals) < 8; b = b[8:] {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(b)))
		}
		checkRoundTrip(t, c, vals)
	})
}
