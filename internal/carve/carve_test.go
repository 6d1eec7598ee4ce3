package carve

import (
	"slices"
	"testing"
	"unsafe"
)

// packet is as large as a netsim packet: 23 of them fill 4 KiB.
type packet [22]uint64

// TestCarvedValues takes values one and several at a time across many
// chunks and marks each as it is handed out: every value starts zero, a
// run of n has capacity n, so appending to it cannot reach a neighbour,
// and once everything is taken every value still holds its own mark, so
// no two overlap and none moved.
func TestCarvedValues(t *testing.T) {
	var c Chunks[packet]
	type taken struct {
		v    *packet
		mark uint64
	}
	var all []taken
	mark := uint64(0)
	for i := 0; i < 200; i++ {
		n := []int{1, 1, 2, 5, 1, 3}[i%6]
		var vs []packet
		if n == 1 && i%2 == 0 {
			vs = unsafe.Slice(c.New(), 1)
		} else {
			vs = c.Take(n)
		}
		if len(vs) != n || cap(vs) != n {
			t.Fatalf("take %d: %d values with capacity %d, want %d", i, len(vs), cap(vs), n)
		}
		for j := range vs {
			if vs[j] != (packet{}) {
				t.Fatalf("take %d: value %d is not zero", i, j)
			}
			mark++
			for k := range vs[j] {
				vs[j][k] = mark
			}
			all = append(all, taken{&vs[j], mark})
		}
	}
	for i, tk := range all {
		want := packet{}
		for k := range want {
			want[k] = tk.mark
		}
		if *tk.v != want {
			t.Fatalf("value %d lost its mark: it overlaps a later value", i)
		}
	}
}

// chunkSizes takes n values one at a time and returns the length of every
// chunk the carver started.
func chunkSizes[T any](n int) []int {
	var c Chunks[T]
	var sizes []int
	for i := 0; i < n; i++ {
		fresh := len(c.spare) == 0
		c.New()
		if fresh {
			sizes = append(sizes, len(c.spare)+1)
		}
	}
	return sizes
}

// TestChunkSchedule pins the one growth rule: a first chunk of 8, then
// twice the values carved so far plus 8, capped at what fills 4 KiB but
// never below 8.
func TestChunkSchedule(t *testing.T) {
	for _, tc := range []struct {
		name string
		got  []int
		want []int
	}{
		{"8-byte", chunkSizes[uint64](2000), []int{8, 24, 72, 216, 512, 512, 512, 512}},
		{"176-byte", chunkSizes[packet](8 + 2*23), []int{8, 23, 23}},
		{"1 KiB", chunkSizes[[1024]byte](30), []int{8, 8, 8, 8}},
	} {
		if !slices.Equal(tc.got, tc.want) {
			t.Errorf("%s values: chunks of %v, want %v", tc.name, tc.got, tc.want)
		}
	}
}

// TestOversizeTake: a request larger than the chunk the carver would make
// next gets an allocation of its own, and the current chunk carries on
// where it was.
func TestOversizeTake(t *testing.T) {
	var c Chunks[uint64]
	first := c.New()
	big := c.Take(100) // the next chunk would be 2·1+8 = 10
	if len(big) != 100 || cap(big) != 100 {
		t.Fatalf("oversize take: %d values with capacity %d, want 100", len(big), cap(big))
	}
	if len(c.spare) != 7 {
		t.Fatalf("the current chunk has %d values left, want 7", len(c.spare))
	}
	if next := c.New(); next != (*uint64)(unsafe.Add(unsafe.Pointer(first), 8)) {
		t.Fatal("the value after an oversize take is not the chunk's next")
	}
	chunk, own := uintptr(unsafe.Pointer(first)), uintptr(unsafe.Pointer(&big[0]))
	if own < chunk+8*8 && chunk < own+100*8 {
		t.Fatal("the oversize take overlaps the current chunk")
	}
}

// TestAllocsPerChunk: carving costs one allocation per chunk and nothing
// per value.
func TestAllocsPerChunk(t *testing.T) {
	carvers := make([]Chunks[packet], 11) // AllocsPerRun's warm-up call, then ten
	i := 0
	allocs := testing.AllocsPerRun(10, func() {
		c := &carvers[i]
		i++
		for range 8 + 2*23 {
			c.New()
		}
	})
	if allocs != 3 {
		t.Errorf("carving 8+23+23 values allocates %.0f times, want 3 (one per chunk)", allocs)
	}
}
