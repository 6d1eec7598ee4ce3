// Package carve hands out a run's many small objects that must not move —
// packets and their headers, flow endpoints, switch link states, collector
// cells, flow-level flow states — from chunks, so each costs a share of
// one allocation instead of one of its own (DESIGN.md §3). A network
// keeps one Arena for everything its runs carve, and a reset rewinds it:
// the next run carves the same chunks again. Nothing carved may outlive
// its run. A carver outside an arena serves longer lives: a network's
// hosts, switches and links and a topology's routes live as long as it.
package carve

import "unsafe"

// Chunks carves values of T from chunks. A chunk holds 8 values at first,
// then twice as many plus 8 as have been carved, up to as many as fill
// 4 KiB (at least 8), so the many few-flow cells of a sweep do not pay for
// a large one; a request beyond that size gets an allocation of its own
// and leaves the current chunk alone. Carved values start zero and never
// move, and a chunk lives as long as any value carved from it. The zero
// Chunks is ready to use; it keeps no chunk it has moved past.
//
// A carver of an arena (Of) keeps every chunk it starts. After Rewind it
// carves as if new, but takes each chunk it needs from the kept ones, in
// the order it started them, zeroed when it is taken up again; it
// allocates only where a kept chunk is too small or none is left, and
// keeps that chunk in its place. So a run that carves what the last one
// did allocates nothing.
type Chunks[T any] struct {
	spare  []T   // the current chunk's unused tail
	carved int   // values carved since the start or the last Rewind
	kept   [][]T // in an arena, every chunk started; nil outside one
	next   int   // kept[next] is the chunk to take up next
}

// New returns the next zero value.
func (c *Chunks[T]) New() *T { return &c.Take(1)[0] }

// Take returns the next n zero values.
func (c *Chunks[T]) Take(n int) []T {
	c.carved += n
	if n > len(c.spare) {
		var zero T
		size := min(max(8, 4096/int(unsafe.Sizeof(zero))), 2*(c.carved-n)+8)
		if n > size {
			return make([]T, n)
		}
		c.spare = c.chunk(n, size)
	}
	v := c.spare[:n:n]
	c.spare = c.spare[n:]
	return v
}

// Reserve makes the next n values carved come from one chunk of exactly
// n, unless the current chunk still holds them: a caller that knows its
// count pays one allocation and leaves no tail. A carver of an arena does
// not reserve, since the chunk would not be kept.
func (c *Chunks[T]) Reserve(n int) {
	if c.kept != nil {
		panic("carve: Reserve on a carver of an arena")
	}
	if n > len(c.spare) {
		c.spare = make([]T, n)
	}
}

// chunk returns the chunk to carve on once the current one cannot hold n
// values: the next kept one, zeroed, when it can, or a new one of size.
func (c *Chunks[T]) chunk(n, size int) []T {
	if c.kept == nil {
		return make([]T, size)
	}
	if c.next < len(c.kept) && n <= len(c.kept[c.next]) {
		ch := c.kept[c.next]
		c.next++
		clear(ch)
		return ch
	}
	ch := make([]T, size)
	c.kept = append(c.kept, nil)
	copy(c.kept[c.next+1:], c.kept[c.next:])
	c.kept[c.next] = ch
	c.next++
	return ch
}

// Rewind makes every value carved so far free to be carved again. The
// caller vouches that none of them is used any more. A carver that carved
// nothing since the last Rewind gives its kept chunks up, so an arena
// holds what its last run carved, not every type any run carved.
func (c *Chunks[T]) Rewind() {
	if c.carved == 0 {
		clear(c.kept)
		c.kept = c.kept[:0]
	}
	c.spare, c.carved, c.next = nil, 0, 0
}

// Arena is a set of carvers, one per type, that rewind together, and of
// the values it keeps (Keep). The zero Arena is ready to use; it must not
// be copied once used.
type Arena struct {
	carvers []interface{ Rewind() }
	inline  [8]interface{ Rewind() } // carvers' first storage
}

// kept is a carver of an arena with room for its first chunks in the same
// allocation.
type kept[T any] struct {
	Chunks[T]
	inline [4][]T
}

// Of returns a's carver of T, adding one the first time T is asked for.
// With a nil it returns a carver of its own, as the zero Chunks. An arena
// holds a handful of types, so the scan is short; callers that carve
// often keep the carver.
func Of[T any](a *Arena) *Chunks[T] {
	if a == nil {
		return new(Chunks[T])
	}
	for _, c := range a.carvers {
		if c, ok := c.(*Chunks[T]); ok {
			return c
		}
	}
	k := new(kept[T])
	k.kept = k.inline[:0]
	if a.carvers == nil {
		a.carvers = a.inline[:0]
	}
	a.carvers = append(a.carvers, &k.Chunks)
	return &k.Chunks
}

// Keep returns a's one T, made by mk the first time T is asked for. It
// belongs to the arena from then on, for what the arena's runs use of it
// between rewinds, such as a flow-level allocator: every Rewind of the
// arena calls its Rewind, which readies it for the next run. Unlike a
// carver it is kept while runs do not ask for it.
func Keep[T interface{ Rewind() }](a *Arena, mk func() T) T {
	for _, c := range a.carvers {
		if v, ok := c.(T); ok {
			return v
		}
	}
	v := mk()
	if a.carvers == nil {
		a.carvers = a.inline[:0]
	}
	a.carvers = append(a.carvers, v)
	return v
}

// Rewind rewinds every carver of a (Chunks.Rewind).
func (a *Arena) Rewind() {
	for _, c := range a.carvers {
		c.Rewind()
	}
}
