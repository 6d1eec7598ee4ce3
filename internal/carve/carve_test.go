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

// TestReserve: a reserved count is carved from one chunk of exactly that
// size, one allocation with no tail, and carving past it goes on by the
// schedule.
func TestReserve(t *testing.T) {
	var c Chunks[packet]
	var first, last *packet
	allocs := testing.AllocsPerRun(1, func() {
		c = Chunks[packet]{}
		c.Reserve(100)
		first = c.New()
		for range 98 {
			c.New()
		}
		last = c.New()
	})
	if allocs != 1 {
		t.Errorf("reserving and carving 100 values allocates %.0f times, want 1", allocs)
	}
	if len(c.spare) != 0 || unsafe.Add(unsafe.Pointer(first), 99*unsafe.Sizeof(packet{})) != unsafe.Pointer(last) {
		t.Error("the 100 reserved values are not one chunk of exactly 100")
	}
	c.New()
	if len(c.spare) != 22 { // 4 KiB of packets, less the one just carved
		t.Errorf("past the reserve the chunk has %d values left, want 22", len(c.spare))
	}
	defer func() {
		if recover() == nil {
			t.Error("Reserve on an arena's carver did not panic")
		}
	}()
	var a Arena
	Of[packet](&a).Reserve(1)
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

// TestRewind carves values one and several at a time from an arena's
// carver, marks them, rewinds and carves the same again: the carver hands
// out the very same values in the same order, every one zero.
func TestRewind(t *testing.T) {
	var a Arena
	c := Of[packet](&a)
	takes := []int{1, 3, 1, 1, 5, 2, 1}
	var first []*packet
	for i := 0; i < 120; i++ {
		for _, v := range slicesOf(c, takes[i%len(takes)]) {
			v[0] = 1
			first = append(first, v)
		}
	}
	a.Rewind()
	i := 0
	for j := 0; j < 120; j++ {
		for _, v := range slicesOf(c, takes[j%len(takes)]) {
			if v != first[i] {
				t.Fatalf("value %d after the rewind is not the one carved there before", i)
			}
			if *v != (packet{}) {
				t.Fatalf("value %d after the rewind is not zero", i)
			}
			i++
		}
	}
}

// slicesOf takes n values from c and returns a pointer to each.
func slicesOf(c *Chunks[packet], n int) []*packet {
	vs := c.Take(n)
	ps := make([]*packet, n)
	for i := range vs {
		ps[i] = &vs[i]
	}
	return ps
}

// TestRewindAllocs: a rewound carver allocates nothing up to its
// high-water mark, and past it one chunk per chunk, which the next rewind
// keeps: a run that carves as much as the largest before it allocates
// nothing.
func TestRewindAllocs(t *testing.T) {
	var a Arena
	c := Of[packet](&a)
	carve := func(n int) func() {
		return func() {
			a.Rewind()
			for i := 0; i < n; i++ {
				c.Take(1 + i%3)
			}
		}
	}
	carve(100)()
	if allocs := testing.AllocsPerRun(10, carve(100)); allocs != 0 {
		t.Errorf("carving up to the high-water mark allocates %.1f times per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(10, carve(40)); allocs != 0 {
		t.Errorf("carving below the high-water mark allocates %.1f times per run, want 0", allocs)
	}
	var before, after int
	for _, ch := range c.kept {
		before += len(ch)
	}
	carve(300)()
	for _, ch := range c.kept {
		after += len(ch)
	}
	if after <= before {
		t.Fatalf("carving past the high-water mark kept %d values, as many as before", after)
	}
	if allocs := testing.AllocsPerRun(10, carve(300)); allocs != 0 {
		t.Errorf("carving up to the new high-water mark allocates %.1f times per run, want 0", allocs)
	}
}

// TestArenaCarvers: an arena has one carver per type and rewinds them
// all; a carver that carved nothing between two rewinds gives its chunks
// up; and a nil arena gives a carver of its own each time, which keeps
// nothing.
func TestArenaCarvers(t *testing.T) {
	var a Arena
	p, w := Of[packet](&a), Of[uint64](&a)
	if Of[packet](&a) != p || Of[uint64](&a) != w {
		t.Fatal("an arena made a second carver of a type")
	}
	first, word := p.New(), w.New()
	p.New()
	a.Rewind()
	if p.New() != first || w.New() != word {
		t.Fatal("the arena's rewind missed a carver")
	}
	a.Rewind()
	p.New()
	a.Rewind() // w carved nothing since the last rewind
	if len(w.kept) != 0 || len(p.kept) == 0 || p.New() != first {
		t.Fatalf("an idle carver keeps %d chunks, a busy one %d", len(w.kept), len(p.kept))
	}
	own := Of[packet](nil)
	if own == Of[packet](nil) || own.kept != nil {
		t.Fatal("a nil arena's carver is shared or keeps its chunks")
	}
	v := own.New()
	own.Rewind()
	if own.New() == v {
		t.Fatal("a carver outside an arena handed a value out twice")
	}
}

// rewound counts its rewinds.
type rewound struct{ n int }

func (r *rewound) Rewind() { r.n++ }

// TestArenaKeeps pins Keep: an arena makes one value of a type, the first
// time it is asked, rewinds it with its carvers and keeps it through
// rewinds that did not ask for it; a carver of the same arena is not
// taken for it.
func TestArenaKeeps(t *testing.T) {
	var a Arena
	made := 0
	mk := func() *rewound { made++; return new(rewound) }
	p := Of[packet](&a)
	r := Keep(&a, mk)
	if Keep(&a, mk) != r || made != 1 {
		t.Fatalf("an arena made %d values of one kept type", made)
	}
	if Of[packet](&a) != p {
		t.Fatal("keeping a value made the arena a second carver")
	}
	a.Rewind()
	a.Rewind()
	if r.n != 2 || Keep(&a, mk) != r || made != 1 {
		t.Fatalf("after two rewinds the kept value was rewound %d times, made %d times", r.n, made)
	}
}
