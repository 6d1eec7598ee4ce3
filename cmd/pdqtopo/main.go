// Command pdqtopo builds and inspects any registered topology family:
// node and link counts, diameter, and equal-cost path diversity — handy
// for sanity-checking a topology before a scenario names it.
//
// Names and parameters resolve through the topology registry, as a
// scenario spec's topology block does: `pdqsim -list` prints every family
// with its parameters and defaults, and an input the registry refuses
// (an unknown name or parameter, a value the family's Check rejects, a
// topology past the link cap) exits 2 with one line.
//
// Usage:
//
//	pdqtopo -topo fat-tree -params '{"k":8}'
//	pdqtopo -topo fat-tree -params '{"k":8,"oversub":4}' -json
//	pdqtopo -topo bcube -params '{"n":2,"k":3}'
//	pdqtopo -topo jellyfish -params '{"switches":20,"degree":8,"hosts_per_switch":4}' -seed 7
//	pdqtopo -topo single-rooted-tree
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"pdq/internal/topo"
)

func main() {
	var (
		name    = flag.String("topo", "single-rooted-tree", "registered topology family (pdqsim -list names them)")
		params  = flag.String("params", "", `family parameters as a JSON object, e.g. '{"k":8}'; unset ones take their defaults`)
		seed    = flag.Int64("seed", 1, "construction seed")
		jsonOut = flag.Bool("json", false, "emit the summary as JSON")
	)
	flag.Parse()

	var given map[string]float64
	if *params != "" {
		if err := json.Unmarshal([]byte(*params), &given); err != nil {
			usage("-params: %v", err)
		}
	}
	t, err := topo.BuildByName(*name, given, *seed)
	if err != nil {
		usage("%s: %v", *name, err)
	}

	ecmp, pathLen := 0, 0
	if len(t.Hosts) >= 2 {
		a, b := t.Hosts[0], t.Hosts[len(t.Hosts)-1]
		paths := t.Paths(a, b, 16)
		ecmp = len(paths)
		if len(paths) > 0 {
			pathLen = len(paths[0])
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(map[string]any{
			"topology": t.Name,
			"hosts":    len(t.Hosts),
			"switches": len(t.Switches),
			"links":    len(t.Net.Links()),
			"diameter": t.Diameter(),
			"ecmp":     ecmp,
			"pathLen":  pathLen,
		}); err != nil {
			fmt.Fprintf(os.Stderr, "pdqtopo: %v\n", err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("topology: %s\n", t.Name)
	fmt.Printf("hosts:    %d\n", len(t.Hosts))
	fmt.Printf("switches: %d\n", len(t.Switches))
	fmt.Printf("links:    %d (directed)\n", len(t.Net.Links()))
	fmt.Printf("diameter: %d hops\n", t.Diameter())
	if len(t.Hosts) >= 2 {
		fmt.Printf("ECMP paths host %d -> host %d: %d (length %d)\n",
			t.Hosts[0].ID(), t.Hosts[len(t.Hosts)-1].ID(), ecmp, pathLen)
	}
}

// usage reports a refused input on one line and exits 2.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pdqtopo: "+format+"\n", args...)
	os.Exit(2)
}
