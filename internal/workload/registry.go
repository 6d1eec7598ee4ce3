package workload

import "pdq/internal/params"

// Registries for the declarative scenario layer: sending patterns and
// flow-size distributions constructible by name from parameter maps.

// PatternMaker is a registered sending-pattern family.
type PatternMaker struct {
	Name   string
	Doc    string
	Params map[string]float64 // accepted parameters with defaults
	Make   func(p map[string]float64) Pattern
}

// SizeDistMaker is a registered flow-size-distribution family.
type SizeDistMaker struct {
	Name   string
	Doc    string
	Params map[string]float64
	Make   func(p map[string]float64) SizeDist
}

var (
	patterns  = params.NewRegistry[PatternMaker]("pattern")
	sizeDists = params.NewRegistry[SizeDistMaker]("size distribution")
)

// RegisterPattern adds a pattern family; duplicate names panic at init.
func RegisterPattern(m PatternMaker) { patterns.Register(m.Name, m.Params, nil, m) }

// RegisterSizeDist adds a size-distribution family; duplicates panic.
func RegisterSizeDist(m SizeDistMaker) { sizeDists.Register(m.Name, m.Params, nil, m) }

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

func init() {
	RegisterPattern(PatternMaker{
		Name: "aggregation",
		Doc:  "all hosts send to the last host (query aggregation, §5.2)",
		Make: func(map[string]float64) Pattern { return Aggregation{} },
	})
	RegisterPattern(PatternMaker{
		Name:   "stride",
		Doc:    "host x sends to host (x+i) mod N",
		Params: map[string]float64{"i": 1},
		Make:   func(p map[string]float64) Pattern { return Stride{I: int(p["i"])} },
	})
	RegisterPattern(PatternMaker{
		Name:   "staggered",
		Doc:    "same-rack destination with probability p, random otherwise",
		Params: map[string]float64{"p": 0.5},
		Make:   func(p map[string]float64) Pattern { return Staggered{P: p["p"]} },
	})
	RegisterPattern(PatternMaker{
		Name: "permutation",
		Doc:  "random fixed-point-free permutation: every host sends to one other",
		Make: func(map[string]float64) Pattern { return Permutation{} },
	})

	RegisterSizeDist(SizeDistMaker{
		Name:   "uniform",
		Doc:    "uniform sizes in [lo_kb, hi_kb]",
		Params: map[string]float64{"lo_kb": 2, "hi_kb": 198},
		Make: func(p map[string]float64) SizeDist {
			return Uniform{Lo: int64(p["lo_kb"] * 1024), Hi: int64(p["hi_kb"] * 1024)}
		},
	})
	RegisterSizeDist(SizeDistMaker{
		Name:   "uniform-mean",
		Doc:    "the paper's uniform distribution [2 KB, 2·mean−2 KB]",
		Params: map[string]float64{"mean_kb": 100},
		Make:   func(p map[string]float64) SizeDist { return UniformMean(int64(p["mean_kb"] * 1024)) },
	})
	RegisterSizeDist(SizeDistMaker{
		Name:   "pareto",
		Doc:    "bounded Pareto heavy tail with tail index alpha, scaled to mean_kb",
		Params: map[string]float64{"alpha": 1.1, "mean_kb": 100},
		Make: func(p map[string]float64) SizeDist {
			return Pareto{Alpha: p["alpha"], MeanSize: p["mean_kb"] * 1024}
		},
	})
	RegisterSizeDist(SizeDistMaker{
		Name: "vl2",
		Doc:  "commercial-cloud flow sizes (Greenberg et al.): mice plus 1–100 MB elephants",
		Make: func(map[string]float64) SizeDist { return VL2SizeDist{} },
	})
	RegisterSizeDist(SizeDistMaker{
		Name: "edu1",
		Doc:  "university data-center flow sizes (Benson et al.): mostly tiny with a modest tail",
		Make: func(map[string]float64) SizeDist { return EDU1SizeDist{} },
	})
	RegisterSizeDist(SizeDistMaker{
		Name: "websearch",
		Doc:  "web-search flow sizes (Alizadeh et al.): query mice with multi-MB background flows",
		Make: func(map[string]float64) SizeDist { return WebSearchSizeDist{} },
	})
}
