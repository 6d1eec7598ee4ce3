package params

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

type entry struct{ doc string }

func testRegistry() *Registry[entry] {
	r := NewRegistry[entry]("widget")
	r.Register("b", map[string]float64{"x": 1, "y": 2}, nil, entry{"second"})
	r.Register("a", nil, nil, entry{"first"})
	r.Register("c", map[string]float64{"n": 1}, func(p map[string]float64) error {
		if p["n"] < 0 {
			return errors.New("n is negative")
		}
		return nil
	}, entry{"checked"})
	return r
}

func TestRegistryNamesListLookup(t *testing.T) {
	r := testRegistry()
	if got, want := r.Names(), []string{"a", "b", "c"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Names = %v, want %v (sorted)", got, want)
	}
	if got, want := r.List(), []entry{{"first"}, {"second"}, {"checked"}}; !reflect.DeepEqual(got, want) {
		t.Errorf("List = %v, want %v (by name)", got, want)
	}
	if e, ok := r.Lookup("b"); !ok || e.doc != "second" {
		t.Errorf("Lookup(b) = %v, %v", e, ok)
	}
	if _, ok := r.Lookup("nope"); ok {
		t.Error("Lookup found an unregistered name")
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := testRegistry()
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, `duplicate widget "a"`) {
			t.Errorf("second registration of a: recovered %q", msg)
		}
	}()
	r.Register("a", nil, nil, entry{})
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
	if r.entries["b"].declared["y"] != 2 {
		t.Error("Resolve wrote through to the declared defaults")
	}
	for _, tc := range []struct {
		name  string
		given map[string]float64
		want  string
	}{
		{"nope", nil, `unknown widget "nope" (available: [a b c])`},
		{"b", map[string]float64{"z": 1, "q": 1}, `widget "b": unknown parameter "q" (accepts [x y])`},
		{"c", map[string]float64{"n": -1}, "n is negative"},
	} {
		if _, _, err := r.Resolve(tc.name, tc.given); err == nil || err.Error() != tc.want {
			t.Errorf("Resolve(%s, %v) error = %v, want %s", tc.name, tc.given, err, tc.want)
		}
	}
	if _, _, err := r.Resolve("c", nil); err != nil {
		t.Errorf("check rejected the defaults: %v", err)
	}
}
