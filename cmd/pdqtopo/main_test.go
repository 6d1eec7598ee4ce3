package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"pdq/internal/topo"
)

// TestMain runs the command itself when a test re-executes the test
// binary with PDQTOPO_MAIN=1, so exit codes and output are checked as a
// user sees them.
func TestMain(m *testing.M) {
	if os.Getenv("PDQTOPO_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// pdqtopo runs the command with args and returns its stdout, stderr and
// exit code. An input that slips past the registry can hang or build a
// huge topology, so a run is killed after a deadline no valid one nears.
func pdqtopo(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PDQTOPO_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stdout.String(), stderr.String(), 0
	case errors.As(err, &exit):
		return stdout.String(), stderr.String(), exit.ExitCode()
	}
	t.Fatal(err)
	return "", "", 0
}

// TestRefusedInputsExitTwo pins that what the registry refuses is a usage
// error on one line, never a panic: these three inputs once reached the
// constructors and died with a goroutine dump.
func TestRefusedInputsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-topo", "fat-tree", "-params", `{"k":3}`},
		{"-topo", "jellyfish", "-params", `{"switches":4,"degree":5}`},
		{"-topo", "bcube", "-params", `{"n":1,"k":2}`},
		{"-topo", "tree"},
		{"-topo", "fat-tree", "-params", `{"levels":2}`},
		{"-topo", "fat-tree", "-params", `{"k":8`},
		{"-topo", "fat-tree", "-params", `{"k":128}`},
	} {
		stdout, stderr, code := pdqtopo(t, args...)
		if code != 2 || stdout != "" || strings.Count(stderr, "\n") != 1 || strings.Contains(stderr, "goroutine") {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want exit 2 and one line on stderr", args, code, stdout, stderr)
		}
	}
}

// TestEveryFamilyAtDefaults builds each registered family, as pdqsim
// -list names them, at its default parameters.
func TestEveryFamilyAtDefaults(t *testing.T) {
	for _, b := range topo.BuilderList() {
		stdout, stderr, code := pdqtopo(t, "-topo", b.Name)
		if code != 0 || stderr != "" {
			t.Errorf("%s: exit %d, stderr %q", b.Name, code, stderr)
		}
		for _, field := range []string{"hosts:", "switches:", "links:"} {
			if !strings.Contains(stdout, "\n"+field) {
				t.Errorf("%s: no %q line in\n%s", b.Name, field, stdout)
			}
		}
	}
}

// TestDefaultTreeSummary pins the summary of the paper's default
// topology, byte for byte as the inspector printed it under its old
// name, -topo tree.
func TestDefaultTreeSummary(t *testing.T) {
	const want = `topology: single-rooted-tree
hosts:    12
switches: 5
links:    32 (directed)
diameter: 4 hops
ECMP paths host 2 -> host 16: 1 (length 4)
`
	for _, args := range [][]string{{"-topo", "single-rooted-tree"}, {}} {
		if stdout, stderr, code := pdqtopo(t, args...); stdout != want || code != 0 {
			t.Errorf("%q: exit %d, stderr %q, stdout:\n%s\nwant:\n%s", args, code, stderr, stdout, want)
		}
	}
}
