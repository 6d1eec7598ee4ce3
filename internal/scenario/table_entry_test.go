package scenario

import (
	"encoding/binary"
	"math"
	"os"
	"testing"

	"pdq/internal/trace"
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

// sameBits reports whether two float slices hold the same bit patterns,
// nil and empty told apart.
func sameBits(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkTableRoundTrip encodes a table holding vals and requires every bit,
// and every nil, back.
func checkTableRoundTrip(t *testing.T, vals []float64) {
	t.Helper()
	want := &Table{Cols: []string{"a", "b"}, Rows: []Row{
		{Label: "vals only", Vals: vals},
		{Label: "with errs", Vals: vals, Errs: vals},
		{Label: "empty", Vals: []float64{}},
	}}
	got := decodeTable(encodeTable(want))
	if got == nil || len(got.Rows) != len(want.Rows) || len(got.Cols) != len(want.Cols) {
		t.Fatalf("table came back as %+v", got)
	}
	for i, r := range want.Rows {
		if g := got.Rows[i]; g.Label != r.Label || !sameBits(g.Vals, r.Vals) || !sameBits(g.Errs, r.Errs) {
			t.Fatalf("row %d came back as %+v, want %+v", i, g, r)
		}
	}
}

// TestTableEntry pins a driver table's cache entry: every float comes back
// with its exact bits; an entry that is not exactly the bytes encodeTable
// writes for the table it decodes to is refused, and through the cache it
// is a miss that deletes the entry.
func TestTableEntry(t *testing.T) {
	checkTableRoundTrip(t, specialFloats)
	if got := string(encodeTable(&Table{})); got != "{\"cols\":null,\"rows\":null}\n" {
		t.Errorf("empty table encodes to %q", got)
	}
	for _, data := range []string{
		`{"cols":null,"rows":null}`, // no trailing newline
		"{\"rows\":null,\"cols\":null}\n",
		"{\"cols\": null,\"rows\":null}\n",
		"{\"cols\":null,\"rows\":null,\"x\":1}\n",
		"{\"cols\":[],\"rows\":[{\"label\":\"r\",\"vals\":[1.0],\"errs\":null}]}\n",
		"{\"cols\":[],\"rows\":[{\"label\":\"r\",\"vals\":[1]}]}\n",
		"not json\n",
	} {
		if tab := decodeTable([]byte(data)); tab != nil {
			t.Errorf("non-canonical entry %q decoded to %+v", data, tab)
		}
	}

	c, err := trace.NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := trace.Key([]byte("table"))
	c.Put(key, []byte(" {\"cols\":null,\"rows\":null}\n"))
	var tab *Table
	if c.Get(key, func(data []byte) bool { tab = decodeTable(data); return tab != nil }) {
		t.Fatalf("a non-canonical entry was served as %+v", tab)
	}
	if c.Errors() != 1 || c.Get(key, func([]byte) bool { return true }) {
		t.Errorf("the refused entry was not dropped (errors %d)", c.Errors())
	}
}

// FuzzTableEntry decodes arbitrary bytes as a driver table's cache entry:
// a table or a refusal, never a panic, and a table decoded re-encodes to
// the very bytes it was decoded from. The leading bytes, as float bit
// patterns, must then round-trip through the codec exactly. The corpus is
// seeded with a real driver table entry.
func FuzzTableEntry(f *testing.F) {
	seed, err := os.ReadFile("../trace/testdata/entries/fig6-driver")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if tab := decodeTable(data); tab != nil {
			if got := encodeTable(tab); string(got) != string(data) {
				t.Fatalf("a table read from %q re-encodes to %q", data, got)
			}
		}
		var vals []float64
		for b := data; len(b) >= 8 && len(vals) < 8; b = b[8:] {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(b)))
		}
		checkTableRoundTrip(t, vals)
	})
}
