package scenario

import (
	"reflect"
	"strings"
	"testing"
)

// TestPlanIsTheKey walks the plan structs by reflection: every field, at
// any depth, is exported and marshalled, and changing it alone changes the
// cell's key. A field added to a plan is key material by construction; one
// hidden from JSON would let two different cells share a cache entry.
func TestPlanIsTheKey(t *testing.T) {
	newPlan := func() *cellPlan { return &cellPlan{Eng: &engPlan{}, Col: &colPlan{}, Row: &rowPlan{}} }
	leaves := 0
	var walk func(path string, typ reflect.Type, at func(*cellPlan) reflect.Value)
	walk = func(path string, typ reflect.Type, at func(*cellPlan) reflect.Value) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			name := path + "." + f.Name
			if !f.IsExported() || strings.HasPrefix(f.Tag.Get("json"), "-") {
				t.Errorf("%s is not marshalled into the key", name)
				continue
			}
			field := func(p *cellPlan) reflect.Value { return at(p).Field(i) }
			switch f.Type.Kind() {
			case reflect.Struct:
				walk(name, f.Type, field)
				continue
			case reflect.Pointer:
				walk(name, f.Type.Elem(), func(p *cellPlan) reflect.Value { return field(p).Elem() })
				continue
			case reflect.Slice:
				walk(name+"[0]", f.Type.Elem(), func(p *cellPlan) reflect.Value {
					if s := field(p); s.Len() == 0 {
						s.Set(reflect.MakeSlice(f.Type, 1, 1))
					}
					return field(p).Index(0)
				})
			}
			p := newPlan()
			v := field(p)
			before := p.key()
			switch f.Type.Kind() {
			case reflect.String:
				v.SetString("x")
			case reflect.Int, reflect.Int64:
				v.SetInt(1)
			case reflect.Uint8:
				v.SetUint(1)
			case reflect.Float64:
				v.SetFloat(0.5)
			case reflect.Bool:
				v.SetBool(true)
			case reflect.Map:
				v.Set(reflect.ValueOf(map[string]float64{"k": 1}))
			case reflect.Slice:
				v.Set(reflect.MakeSlice(f.Type, 1, 1))
			default:
				t.Fatalf("%s: this test cannot change a %s", name, f.Type)
			}
			leaves++
			if p.key() == before {
				t.Errorf("changing %s leaves the cell key unchanged", name)
			}
		}
	}
	walk("cell", reflect.TypeOf(cellPlan{}), func(p *cellPlan) reflect.Value { return reflect.ValueOf(p).Elem() })
	if leaves < 40 {
		t.Errorf("walked %d fields, the plans have more", leaves)
	}
}
