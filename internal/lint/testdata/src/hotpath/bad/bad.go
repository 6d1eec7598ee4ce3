// Package bad trips every hotpath check inside annotated functions.
package bad

import "fmt"

type sink interface{ Add(int) }

type counter struct{ n int }

func (c *counter) Add(d int) { c.n += d }

//pdq:hotpath
func Capture(vals []int) int {
	total := 0
	f := func() { total++ } // want "closure captures total"
	f()
	return total
}

//pdq:hotpath
func MakeMap(n int) int {
	m := make(map[int]int) // want "make(map) allocates"
	m[n] = n
	return len(m)
}

//pdq:hotpath
func MapLit() map[string]int {
	return map[string]int{"a": 1} // want "map literal allocates"
}

//pdq:hotpath
func Box(vals []int) interface{} {
	var x interface{} = vals[0] // want "boxes int into an interface"
	return x
}

//pdq:hotpath
func BoxArg(s sink, vals []int) {
	consume(vals[0]) // want "boxes int into an interface"
}

func consume(v interface{}) { _ = v }

//pdq:hotpath
func Concat(name string) string {
	return name + "!" // want "string concatenation allocates"
}

//pdq:hotpath
func Format(n int) {
	fmt.Println(n) // want "fmt.Println allocates"
}

//pdq:hotpath
func Bound(c *counter) func(int) {
	return c.Add // want "bound method value c.Add allocates"
}

//pdq:hotpath
func AddrLit(n int) *counter {
	return &counter{n: n} // want "&counter{...} allocates"
}

//pdq:hotpath
func New() *counter {
	return new(counter) // want "new(counter) allocates"
}
