package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
)

// Row is one data row of a result table.
type Row struct {
	Label string    `json:"label"`
	Vals  []float64 `json:"vals"`
	// Errs holds the standard error of each value when the sweep ran with
	// Opts.Trials > 1; nil for single-trial runs.
	Errs []float64 `json:"errs,omitempty"`
}

// MarshalJSON writes a row as JSON, with NaN and ±Inf — a failed cell's
// value and stderr — as null, which JSON has in their place.
func (r Row) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Label string     `json:"label"`
		Vals  []*float64 `json:"vals"`
		Errs  []*float64 `json:"errs,omitempty"`
	}{r.Label, nulls(r.Vals), nulls(r.Errs)})
}

// nulls points at each of xs, nil for NaN and ±Inf, keeping nil nil.
func nulls(xs []float64) []*float64 {
	if xs == nil {
		return nil
	}
	out := make([]*float64, len(xs))
	for i := range xs {
		if !math.IsNaN(xs[i]) && !math.IsInf(xs[i], 0) {
			out[i] = &xs[i]
		}
	}
	return out
}

// CellError is one failed grid-cell replicate attached to an otherwise
// complete table: the cell's value is NaN and the rest of the sweep ran
// to completion (partial-table emission, DESIGN.md §11).
type CellError struct {
	Row  string `json:"row"`
	Col  string `json:"col"`
	Rep  int    `json:"rep,omitempty"`
	Seed int64  `json:"seed,omitempty"`
	Msg  string `json:"msg"`
}

// Table is a reproduced figure/table: a header plus labeled float rows.
type Table struct {
	Name   string   `json:"name"`
	Desc   string   `json:"desc"`
	Cols   []string `json:"cols"`
	Rows   []Row    `json:"rows"`
	Digits int      `json:"-"` // formatting precision; default 2

	// Errors lists the cells whose replicates failed (panic, event
	// budget, watchdog); empty for a clean run.
	Errors []CellError `json:"errors,omitempty"`
}

// Get returns the value at (rowLabel, col), panicking if absent — the
// shape tests use it. It stops at the first matching column and panics on
// duplicate column names so malformed tables fail fast.
func (t *Table) Get(rowLabel, col string) float64 {
	ci := -1
	for i, c := range t.Cols {
		if c != col {
			continue
		}
		if ci >= 0 {
			panic(fmt.Sprintf("scenario: duplicate column %q in %s", col, t.Name))
		}
		ci = i
	}
	if ci < 0 {
		panic(fmt.Sprintf("scenario: no column %q in %s", col, t.Name))
	}
	for _, r := range t.Rows {
		if r.Label == rowLabel {
			return r.Vals[ci]
		}
	}
	panic(fmt.Sprintf("scenario: no row %q in %s", rowLabel, t.Name))
}

// String renders the table for the terminal.
func (t *Table) String() string {
	d := t.Digits
	if d == 0 {
		d = 2
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.Name, t.Desc)
	w := 12
	for _, r := range t.Rows {
		if r.Errs != nil {
			w = 20 // room for "mean±stderr"
			break
		}
	}
	fmt.Fprintf(&b, "%-24s", "")
	for _, c := range t.Cols {
		fmt.Fprintf(&b, "%*s", w, c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-24s", r.Label)
		for i, v := range r.Vals {
			switch {
			case math.IsNaN(v) || math.IsInf(v, 0): // a failed cell, or one beyond its row's reach
				fmt.Fprintf(&b, "%*s", w, "—")
			case r.Errs != nil:
				fmt.Fprintf(&b, "%*s", w, fmt.Sprintf("%.*f±%.*f", d, v, d, r.Errs[i]))
			default:
				fmt.Fprintf(&b, "%*.*f", w, d, v)
			}
		}
		b.WriteByte('\n')
	}
	for _, e := range t.Errors {
		fmt.Fprintf(&b, "! failed cell %s × %s (rep %d, seed %d): %s\n", e.Row, e.Col, e.Rep, e.Seed, e.Msg)
	}
	return b.String()
}
