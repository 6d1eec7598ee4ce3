package workload

import (
	"cmp"
	"fmt"
	"math"

	"pdq/internal/params"
)

// Registries for the declarative scenario layer: sending patterns and
// flow-size distributions constructible by name from parameter maps.

// PatternMaker is a registered sending-pattern family.
type PatternMaker struct {
	Name   string
	Doc    string
	Params map[string]float64 // accepted parameters with defaults
	// Check, if set, rejects resolved values Make would reinterpret.
	Check func(p map[string]float64) error
	Make  func(p map[string]float64) Pattern
}

// SizeDistMaker is a registered flow-size-distribution family.
type SizeDistMaker struct {
	Name   string
	Doc    string
	Params map[string]float64
	// Check, if set, rejects resolved values Make would reinterpret.
	Check func(p map[string]float64) error
	Make  func(p map[string]float64) SizeDist
}

func (m PatternMaker) decl() params.Decl {
	return params.Decl{Name: m.Name, Params: m.Params, Check: m.Check}
}

func (m SizeDistMaker) decl() params.Decl {
	return params.Decl{Name: m.Name, Params: m.Params, Check: m.Check}
}

// PatternList returns the registered pattern families sorted by name.
func PatternList() []PatternMaker { return patterns.List() }

// SizeDistList returns the registered size-distribution families sorted
// by name.
func SizeDistList() []SizeDistMaker { return sizeDists.List() }

// MakePattern constructs a registered pattern from params.
func MakePattern(name string, given map[string]float64) (Pattern, error) {
	m, p, err := patterns.Resolve(name, given)
	if err != nil {
		return nil, err
	}
	return m.Make(p), nil
}

// MakeSizeDist constructs a registered size distribution from params.
func MakeSizeDist(name string, given map[string]float64) (SizeDist, error) {
	m, p, err := sizeDists.Resolve(name, given)
	if err != nil {
		return nil, err
	}
	return m.Make(p), nil
}

// patterns is the table of sending-pattern families.
var patterns = params.NewRegistry("pattern", PatternMaker.decl, []PatternMaker{
	{
		Name: "aggregation",
		Doc:  "all hosts send to the last host (query aggregation, §5.2)",
		Make: func(map[string]float64) Pattern { return Aggregation{} },
	},
	{
		Name:   "stride",
		Doc:    "host x sends to host (x+i) mod N",
		Params: map[string]float64{"i": 1},
		Check:  func(p map[string]float64) error { return params.Int("i", p["i"], 0, math.MaxInt32) },
		Make:   func(p map[string]float64) Pattern { return Stride{I: int(p["i"])} },
	},
	{
		Name:   "staggered",
		Doc:    "same-rack destination with probability p, random otherwise",
		Params: map[string]float64{"p": 0.5},
		Check:  func(p map[string]float64) error { return params.In("p", p["p"], 0, 1) },
		Make:   func(p map[string]float64) Pattern { return Staggered{P: p["p"]} },
	},
	{
		Name: "permutation",
		Doc:  "random fixed-point-free permutation: every host sends to one other",
		Make: func(map[string]float64) Pattern { return Permutation{} },
	},
})

// maxKB bounds a size in KB: the most whose bytes fit a flow's int64
// size. A flow is at least one byte (1/1024 KB), and the paper's
// distributions take their floor at 2 KB (MinFlowSize), so a mean below
// it would be clamped to it.
const maxKB = 0x1p53 - 1

// sizeDists is the table of flow-size-distribution families.
var sizeDists = params.NewRegistry("size distribution", SizeDistMaker.decl, []SizeDistMaker{
	{
		Name:   "uniform",
		Doc:    "uniform sizes in [lo_kb, hi_kb]",
		Params: map[string]float64{"lo_kb": 2, "hi_kb": 198},
		Check: func(p map[string]float64) error {
			if lo, hi := p["lo_kb"], p["hi_kb"]; lo > hi {
				return fmt.Errorf("parameters \"lo_kb\" = %v, \"hi_kb\" = %v: want lo_kb <= hi_kb", lo, hi)
			}
			return cmp.Or(params.In("lo_kb", p["lo_kb"], 1.0/1024, maxKB), params.In("hi_kb", p["hi_kb"], 1.0/1024, maxKB))
		},
		Make: func(p map[string]float64) SizeDist {
			return Uniform{Lo: int64(p["lo_kb"] * 1024), Hi: int64(p["hi_kb"] * 1024)}
		},
	},
	{
		Name:   "uniform-mean",
		Doc:    "the paper's uniform distribution [2 KB, 2·mean−2 KB]",
		Params: map[string]float64{"mean_kb": 100},
		Check:  func(p map[string]float64) error { return params.In("mean_kb", p["mean_kb"], 2, maxKB/2) },
		Make:   func(p map[string]float64) SizeDist { return UniformMean(int64(p["mean_kb"] * 1024)) },
	},
	{
		Name:   "pareto",
		Doc:    "bounded Pareto heavy tail with tail index alpha, scaled to mean_kb",
		Params: map[string]float64{"alpha": 1.1, "mean_kb": 100},
		Check: func(p map[string]float64) error {
			if a := p["alpha"]; !(a > 1 && a <= math.MaxFloat64) {
				return fmt.Errorf("parameter \"alpha\" = %v: want a finite tail index > 1 (the mean is infinite at or below 1)", a)
			}
			return params.In("mean_kb", p["mean_kb"], 2, maxKB/1000) // samples reach 1000×mean
		},
		Make: func(p map[string]float64) SizeDist {
			return Pareto{Alpha: p["alpha"], MeanSize: p["mean_kb"] * 1024}
		},
	},
	{
		Name: "vl2",
		Doc:  "commercial-cloud flow sizes (Greenberg et al.): mice plus 1–100 MB elephants",
		Make: func(map[string]float64) SizeDist { return VL2SizeDist{} },
	},
	{
		Name: "edu1",
		Doc:  "university data-center flow sizes (Benson et al.): mostly tiny with a modest tail",
		Make: func(map[string]float64) SizeDist { return EDU1SizeDist{} },
	},
	{
		Name: "websearch",
		Doc:  "web-search flow sizes (Alizadeh et al.): query mice with multi-MB background flows",
		Make: func(map[string]float64) SizeDist { return WebSearchSizeDist{} },
	},
})
