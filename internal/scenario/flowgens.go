// Registered flow generators: hand-built flow sets the pattern/sizes
// machinery cannot express (Fig. 1, Fig. 6, Fig. 7, Fig. 12), which specs
// select by Workload.Custom.

package scenario

import (
	"cmp"
	"fmt"
	"math"
	"strings"

	"pdq/internal/params"
	"pdq/internal/sim"
	"pdq/internal/workload"
)

// flowGens is the table of custom flow generators.
var flowGens = params.NewRegistry("flow generator", FlowGenEntry.decl, []FlowGenEntry{
	{
		Name:     "long-vs-shorts",
		Doc:      "Fig. 12 contention: one `long_mb` flow from host 0 plus `shorts` `short_kb` flows arriving every `spacing_ms` from the remaining senders",
		Params:   map[string]float64{"shorts": 100, "short_kb": 100, "long_mb": 2, "spacing_ms": 1},
		MinHosts: 3, // host 0 sends the long flow, the last host receives, the rest send shorts
		Check: func(p map[string]float64) error {
			// The last short starts by shorts × spacing_ms ≤ maxMs.
			return cmp.Or(minBytes(map[string]float64{"short_kb": 1, "long_mb": 1})(p),
				params.Int("shorts", p["shorts"], 0, math.MaxInt32),
				params.In("spacing_ms", p["spacing_ms"], 0, maxMs/max(1, p["shorts"])))
		},
		Gen: func(p map[string]float64, hosts int, _ int64) []workload.Flow {
			dst := hosts - 1
			fl := []workload.Flow{{ID: 1, Src: 0, Dst: dst, Size: sizeBytes(p, "long_mb")}}
			for i := 0; i < int(p["shorts"]); i++ {
				fl = append(fl, workload.Flow{
					ID: uint64(i + 2), Src: 1 + i%(hosts-2), Dst: dst,
					Size:  sizeBytes(p, "short_kb"),
					Start: sim.Time(float64(i) * p["spacing_ms"] * float64(sim.Millisecond)),
				})
			}
			return fl
		},
	},
	{
		Name:     "deadline-trio",
		Doc:      "Fig. 1 example: fB (2 units, deadline 4 s), fA (1 unit, 1 s) and fC (3 units, 6 s), IDs 2, 1, 3, from hosts 1, 0, 2 to the last host, emitted in that order at t=0; a unit is one second of a 1 Gbps link",
		MinHosts: 4,
		Gen: func(_ map[string]float64, hosts int, _ int64) []workload.Flow {
			const unit = 1e9 / 8 // bytes
			dst := hosts - 1
			return []workload.Flow{
				{ID: 2, Src: 1, Dst: dst, Size: 2 * unit, Deadline: 4 * sim.Second},
				{ID: 1, Src: 0, Dst: dst, Size: 1 * unit, Deadline: 1 * sim.Second},
				{ID: 3, Src: 2, Dst: dst, Size: 3 * unit, Deadline: 6 * sim.Second},
			}
		},
	},
	{
		Name:     "equal-flows",
		Doc:      "Fig. 6 convergence: every host but the last sends one `size_mb` flow to the last at t=0, host i's 100·i bytes larger, IDs 1, 2, … in host order",
		Params:   map[string]float64{"size_mb": 1},
		MinHosts: 2,
		Check:    minBytes(map[string]float64{"size_mb": 1}),
		Gen: func(p map[string]float64, hosts int, _ int64) []workload.Flow {
			fl := make([]workload.Flow, hosts-1)
			for i := range fl {
				fl[i] = workload.Flow{ID: uint64(i + 1), Src: i, Dst: hosts - 1, Size: sizeBytes(p, "size_mb") + int64(i)*100}
			}
			return fl
		},
	},
	{
		Name:     "burst",
		Doc:      "Fig. 7 burst: host 0 sends one `long_mb` flow (ID 100000) to the last host at t=0, and at t=10 ms every other sender starts one `short_kb` ± 1 KB flow to it (IDs 1, 2, …)",
		Params:   map[string]float64{"short_kb": 20, "long_mb": 20},
		MinHosts: 3,
		Check:    minBytes(map[string]float64{"short_kb": 1<<10 + 1, "long_mb": 1}),
		Gen: func(p map[string]float64, hosts int, seed int64) []workload.Flow {
			dst := hosts - 1
			fl := []workload.Flow{{ID: 100000, Src: 0, Dst: dst, Size: sizeBytes(p, "long_mb")}}
			short := sizeBytes(p, "short_kb")
			g := workload.NewGen(seed, workload.Uniform{Lo: short - 1<<10, Hi: short + 1<<10}, 0)
			for src := 1; src < dst; src++ {
				fl = append(fl, g.Flow(src, dst, 10*sim.Millisecond))
			}
			return fl
		},
	},
})

// sizeBytes converts a size parameter named *_kb or *_mb to bytes. It
// scales before it truncates, so a fractional value keeps its bytes.
func sizeBytes(p map[string]float64, key string) int64 {
	unit := float64(1 << 10)
	if strings.HasSuffix(key, "_mb") {
		unit = 1 << 20
	}
	return int64(p[key] * unit)
}

// minBytes returns an entry Check that wants every named size parameter
// to come to at least that many bytes.
func minBytes(min map[string]float64) func(p map[string]float64) error {
	return func(p map[string]float64) error {
		for _, key := range params.SortedKeys(min) {
			if n := sizeBytes(p, key); n < int64(min[key]) {
				return fmt.Errorf("parameter %q = %v is %d bytes: want at least %d", key, p[key], n, int64(min[key]))
			}
		}
		return nil
	}
}
