package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// environment is stored in every result file so two files can be told
// apart by more than their numbers.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	P          int     `json:"p"` // workers of the parallel workloads
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	GitRev     string  `json:"git_revision"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	LoadStart  float64 `json:"load1_start"`
	LoadEnd    float64 `json:"load1_end"`
	// NoisyHost is set when the load average, less the runnable threads
	// the benchmark itself keeps busy, exceeds nproc/2: the host was busy
	// with something else, and the spreads show it.
	NoisyHost bool `json:"noisy_host"`
}

// workers is P: the worker count of the parallel workloads. One process,
// never more threads than cores.
func workers() int { return min(runtime.NumCPU(), 4) }

func newEnvironment(root string, seed int64, seconds float64) environment {
	e := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		P:          workers(),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		GitRev:     gitRevision(root),
		Seed:       seed,
		Seconds:    seconds,
		LoadStart:  loadAverage(),
	}
	e.flagNoise(e.LoadStart, 0)
	return e
}

// finish records the closing load average; own is how many threads the
// run itself kept runnable, which the closing figure includes.
func (e *environment) finish(own int) {
	e.LoadEnd = loadAverage()
	e.flagNoise(e.LoadEnd, own)
}

func (e *environment) flagNoise(load float64, own int) {
	if load-float64(own) > float64(e.NProc)/2 && !e.NoisyHost {
		e.NoisyHost = true
		fmt.Fprintf(os.Stderr, "benchmark: noisy host: 1-min load %.2f (%d of it ours) exceeds nproc/2 = %.1f; expect wide spreads\n",
			load, own, float64(e.NProc)/2)
	}
}

func loadAverage() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0 // not Linux: no figure, no flag
	}
	f := strings.Fields(string(data))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64)
	return v
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return runtime.GOARCH
}

// gitRevision is best-effort: the driver's checkout is not a repository.
func gitRevision(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	// Never search above the checkout for a repository.
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
