// Package clean exercises constructs the hotpath analyzer must accept:
// amortized append growth, concrete composite literals, capture-free
// function literals, called methods, a pool whose one-time allocation
// sits in a cold helper, and unannotated functions doing whatever they
// like.
package clean

import "sort"

type point struct{ x, y int }

type counter struct{ n int }

func (c *counter) Add(d int) { c.n += d }

//pdq:hotpath
func Grow(buf []int, vals []int) []int {
	for _, v := range vals {
		buf = append(buf, v*2) // amortized growth is allowed
	}
	return buf
}

//pdq:hotpath
func Lit(a, b int) point {
	return point{x: a, y: b} // concrete struct literal: no boxing
}

//pdq:hotpath
func Apply(vals []float64) float64 {
	return fold(vals, func(v float64) float64 { return v * 2 }) // capture-free
}

//pdq:hotpath
func Called(c *counter, d int) {
	c.Add(d) // direct method call, not a bound method value
}

type pool struct{ free []*counter }

// Get reuses a pooled object and re-initialises it through the pointer
// (a value literal, not an allocation); the allocating side is grow.
//
//pdq:hotpath
func (p *pool) Get() *counter {
	n := len(p.free)
	if n == 0 {
		return grow()
	}
	c := p.free[n-1]
	p.free = p.free[:n-1]
	*c = counter{}
	return c
}

func grow() *counter { return &counter{} }

// Cold is unannotated: hot-path rules do not apply.
func Cold(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out[k] = m[k]
	}
	return out
}

func fold(vals []float64, f func(float64) float64) float64 {
	t := 0.0
	for _, v := range vals {
		t += f(v)
	}
	return t
}
