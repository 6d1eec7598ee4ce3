package params

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

type entry struct {
	name  string
	doc   string
	decl  map[string]float64
	check func(p map[string]float64) error
}

func (e entry) declare() Decl { return Decl{Name: e.name, Params: e.decl, Check: e.check} }

func testTable() []entry {
	return []entry{
		{name: "b", doc: "second", decl: map[string]float64{"x": 1, "y": 2}},
		{name: "a", doc: "first"},
		{name: "c", doc: "checked", decl: map[string]float64{"n": 1}, check: func(p map[string]float64) error {
			if p["n"] < 0 {
				return errors.New("n is negative")
			}
			return nil
		}},
	}
}

func testRegistry() *Registry[entry] { return NewRegistry("widget", entry.declare, testTable()) }

func TestRegistryNamesListLookup(t *testing.T) {
	r := testRegistry()
	if got, want := r.Names(), []string{"a", "b", "c"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Names = %v, want %v (sorted)", got, want)
	}
	var docs []string
	for _, e := range r.List() {
		docs = append(docs, e.doc)
	}
	if want := []string{"first", "second", "checked"}; !reflect.DeepEqual(docs, want) {
		t.Errorf("List = %v, want %v (by name)", docs, want)
	}
	if e, ok := r.Lookup("b"); !ok || e.doc != "second" {
		t.Errorf("Lookup(b) = %v, %v", e, ok)
	}
	if _, ok := r.Lookup("nope"); ok {
		t.Error("Lookup found an unregistered name")
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, `duplicate widget "a"`) {
			t.Errorf("second entry named a: recovered %q", msg)
		}
	}()
	NewRegistry("widget", entry.declare, append(testTable(), entry{name: "a"}))
}

func TestRegistryResolve(t *testing.T) {
	r := testRegistry()
	e, p, err := r.Resolve("b", map[string]float64{"y": 5})
	if err != nil {
		t.Fatal(err)
	}
	if want := (map[string]float64{"x": 1, "y": 5}); e.doc != "second" || !reflect.DeepEqual(p, want) {
		t.Errorf("Resolve(b, y=5) = %v, %v; want second, %v", e, p, want)
	}
	if r.entries["b"].Params["y"] != 2 {
		t.Error("Resolve wrote through to the declared defaults")
	}
	for _, tc := range []struct {
		name  string
		given map[string]float64
		want  string
	}{
		{"nope", nil, `unknown widget "nope" (available: [a b c])`},
		{"b", map[string]float64{"z": 1, "q": 1}, `widget "b": unknown parameter "q" (accepts [x y])`},
		{"c", map[string]float64{"n": -1}, `widget "c": n is negative`},
	} {
		if _, _, err := r.Resolve(tc.name, tc.given); err == nil || err.Error() != tc.want {
			t.Errorf("Resolve(%s, %v) error = %v, want %s", tc.name, tc.given, err, tc.want)
		}
	}
	if _, _, err := r.Resolve("c", nil); err != nil {
		t.Errorf("check rejected the defaults: %v", err)
	}
}

// TestIntAndIn pins the two domain checks at and past their bounds: a
// fraction fails Int only, and NaN and ±Inf fail both where they fall
// outside [lo, hi].
func TestIntAndIn(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		v, lo, hi float64
		isInt, in bool // accepted by Int, by In
	}{
		{0, 0, 1, true, true},
		{1, 0, 1, true, true},
		{0.5, 0, 1, false, true},
		{-1, 0, 1, false, false},
		{1.5, 0, 1, false, false},
		{nan, 0, 1, false, false},
		{inf, 0, 1e300, false, false},
		{-inf, -1e300, 0, false, false},
		{1e300, 0, inf, true, true},
	} {
		if err := Int("x", tc.v, tc.lo, tc.hi); (err == nil) != tc.isInt {
			t.Errorf("Int(%v in [%v, %v]) = %v", tc.v, tc.lo, tc.hi, err)
		}
		if err := In("x", tc.v, tc.lo, tc.hi); (err == nil) != tc.in {
			t.Errorf("In(%v in [%v, %v]) = %v", tc.v, tc.lo, tc.hi, err)
		}
	}
	if err := Int("n", 0.5, 0, 2); err == nil || err.Error() != `parameter "n" = 0.5: want an integer in [0, 2]` {
		t.Errorf("Int error = %v", err)
	}
	if err := In("q", 150, 0, 100); err == nil || err.Error() != `parameter "q" = 150: want a value in [0, 100]` {
		t.Errorf("In error = %v", err)
	}
}
