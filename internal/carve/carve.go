// Package carve hands out a run's many small objects that must not move —
// packets and their headers, flow endpoints, switch link states, collector
// cells, flow-level flow states — from chunks, so each costs a share of
// one allocation instead of one of its own (DESIGN.md §3).
package carve

import "unsafe"

// Chunks carves values of T from chunks. A chunk holds 8 values at first,
// then twice as many plus 8 as have been carved, up to as many as fill
// 4 KiB (at least 8), so the many few-flow cells of a sweep do not pay for
// a large one; a request beyond that size gets an allocation of its own
// and leaves the current chunk alone. Carved values start zero and never
// move, and a chunk lives as long as any value carved from it. The zero
// Chunks is ready to use.
type Chunks[T any] struct {
	spare  []T // the current chunk's unused tail
	carved int
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
		c.spare = make([]T, size)
	}
	v := c.spare[:n:n]
	c.spare = c.spare[n:]
	return v
}
