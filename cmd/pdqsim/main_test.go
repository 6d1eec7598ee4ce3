package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pdq/internal/exp"
	"pdq/internal/scenario"
	"pdq/internal/trace"
)

// TestMain runs the command itself when a test re-executes the test
// binary with PDQSIM_MAIN=1, so exit codes and stderr are checked as a
// user sees them.
func TestMain(m *testing.M) {
	if os.Getenv("PDQSIM_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// pdqsim runs the command with args and returns its stdout, stderr and
// exit code.
func pdqsim(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PDQSIM_MAIN=1")
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

// TestProbeStrideRejected pins that a -probe-stride-us under the engine's
// 1 ns tick, or not a number, is a usage error on one line rather than a
// silent fall back to the default stride.
func TestProbeStrideRejected(t *testing.T) {
	for _, v := range []string{"0", "-7", "NaN", "0.0009", "Inf"} {
		_, stderr, code := pdqsim(t, "-probe-stride-us", v, "-probe", os.DevNull, "-list")
		if code != 2 || strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, "-probe-stride-us") {
			t.Errorf("-probe-stride-us %s: exit %d, stderr %q; want exit 2 and one line naming the flag", v, code, stderr)
		}
	}
	if _, stderr, code := pdqsim(t, "-probe-stride-us", "0.001", "-list"); code != 0 {
		t.Errorf("-probe-stride-us 0.001: exit %d, stderr %q; want exit 0", code, stderr)
	}
}

// TestListNamesEveryRegistry pins -list: the experiments, then every
// registry a spec can name, the same bytes on every run and the bytes of
// testdata/list.golden, so an entry dropped from or changed in any table
// fails here. After a deliberate change, regenerate the golden with
// `go run ./cmd/pdqsim -list > cmd/pdqsim/testdata/list.golden`.
func TestListNamesEveryRegistry(t *testing.T) {
	out, stderr, code := pdqsim(t, "-list")
	if code != 0 || stderr != "" {
		t.Fatalf("-list: exit %d, stderr %q", code, stderr)
	}
	for _, heading := range []string{"available experiments:", "topologies:", "patterns:",
		"size distributions:", "flow generators:", "protocol runners:",
		"metrics:", "queue disciplines:"} {
		if !strings.Contains(out, "\n"+heading+"\n") && !strings.HasPrefix(out, heading+"\n") {
			t.Errorf("-list has no %q heading", heading)
		}
	}
	if again, _, _ := pdqsim(t, "-list"); again != out {
		t.Error("two -list runs differ")
	}
	golden, err := os.ReadFile("testdata/list.golden")
	if err != nil {
		t.Fatal(err)
	}
	if out != string(golden) {
		t.Errorf("-list differs from testdata/list.golden:\n%s", out)
	}
}

// TestExpAndScenarioExclusive pins that naming two things to run is a
// usage error, not a run of one of them.
func TestExpAndScenarioExclusive(t *testing.T) {
	stdout, stderr, code := pdqsim(t, "-exp", "fig3a", "-scenario", os.DevNull)
	if code != 2 || stdout != "" || strings.Count(stderr, "\n") != 1 {
		t.Errorf("-exp with -scenario: exit %d, stdout %q, stderr %q; want exit 2 and one line", code, stdout, stderr)
	}
}

// TestJSONPartialTable pins that -json keeps a partial table: a run whose
// cells exhaust the event budget exits 3 after printing every table, with
// each failed cell's value as null and its diagnostic in errors.
func TestJSONPartialTable(t *testing.T) {
	stdout, stderr, code := pdqsim(t, "-exp", "fig3a", "-quick", "-max-events", "2000", "-json", "-parallel", "2")
	if code != 3 {
		t.Fatalf("exit %d, stderr %q; want 3", code, stderr)
	}
	var tables []struct {
		Rows []struct {
			Vals []*float64 `json:"vals"`
		} `json:"rows"`
		Errors []struct {
			Msg string `json:"msg"`
		} `json:"errors"`
	}
	if err := json.Unmarshal([]byte(stdout), &tables); err != nil || len(tables) != 1 {
		t.Fatalf("stdout is not one JSON table (%v):\n%s", err, stdout)
	}
	nulls := 0
	for _, r := range tables[0].Rows {
		for _, v := range r.Vals {
			if v == nil {
				nulls++
			}
		}
	}
	if errs := tables[0].Errors; nulls == 0 || len(errs) == 0 || !strings.Contains(errs[0].Msg, "event budget") {
		t.Errorf("%d null values and errors %+v; want both, naming the event budget", nulls, errs)
	}
}

// TestAbsentCell pins a cell beyond its row's reach (a protocol's
// `cols`) as no cell: it runs nothing and is not counted, shows — in text
// and null in JSON, and fails nothing, so the exit status is 0.
func TestAbsentCell(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "absent.json")
	err := os.WriteFile(spec, []byte(`{"name":"absent","topology":{"name":"single-bottleneck"},
		"workload":{"pattern":{"name":"aggregation"},"sizes":{"name":"uniform-mean"},"count":2},
		"protocols":[{"runner":"flow:RCP","cols":1}],"sweep":{"axis":"flows","values":[2,3]},
		"metric":{"name":"mean-fct"},"digits":4,"horizon_ms":100}`), 0o644)
	if err != nil {
		t.Fatal(err)
	}
	text, stderr, code := pdqsim(t, "-scenario", spec)
	if code != 0 {
		t.Fatalf("text: exit %d, stderr %q; want 0", code, stderr)
	}
	if !strings.Contains(text, "\nflow:RCP                      0.0017           —\n") {
		t.Errorf("the absent cell does not print —:\n%s", text)
	}
	metrics := filepath.Join(dir, "metrics.json")
	stdout, stderr, code := pdqsim(t, "-scenario", spec, "-json", "-metrics-out", metrics)
	if code != 0 {
		t.Fatalf("JSON: exit %d, stderr %q; want 0", code, stderr)
	}
	var tables []struct {
		Rows []struct {
			Vals []*float64 `json:"vals"`
		} `json:"rows"`
	}
	if err := json.Unmarshal([]byte(stdout), &tables); err != nil || len(tables) != 1 || len(tables[0].Rows) != 1 {
		t.Fatalf("stdout is not one one-row JSON table (%v):\n%s", err, stdout)
	}
	if vals := tables[0].Rows[0].Vals; len(vals) != 2 || vals[0] == nil || vals[1] != nil {
		t.Errorf("vals %v, want a value and null", vals)
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Runs []struct {
			Total uint64            `json:"cells_total"`
			Cells []json.RawMessage `json:"cells"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &snap); err != nil || len(snap.Runs) != 1 {
		t.Fatalf("metrics snapshot (%v):\n%s", err, data)
	}
	if r := snap.Runs[0]; r.Total != 1 || len(r.Cells) != 1 {
		t.Errorf("%d cells announced, %d records; want one of each", r.Total, len(r.Cells))
	}
}

// goldenLogger is the production text handler with the volatile time
// attribute stripped and a fixed run ID, so log output can be compared
// byte for byte.
func goldenLogger(w io.Writer) *slog.Logger {
	h := slog.NewTextHandler(w, &slog.HandlerOptions{
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if a.Key == slog.TimeKey && len(groups) == 0 {
				return slog.Attr{}
			}
			return a
		},
	})
	return slog.New(h).With("run", "test")
}

// TestReportCacheGolden pins the structured cache report: one hit, one
// miss, no corrupt-entry attr when the error counter is zero.
func TestReportCacheGolden(t *testing.T) {
	dir := t.TempDir()
	c, err := trace.NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := trace.Key([]byte("report-cache-golden"))
	if _, ok := c.GetFloat(key); ok {
		t.Fatal("unexpected hit on an empty cache")
	}
	c.PutFloat(key, 1.5)
	if v, ok := c.GetFloat(key); !ok || v != 1.5 {
		t.Fatalf("GetFloat after Put = %v, %v", v, ok)
	}
	var buf bytes.Buffer
	reportCache(goldenLogger(&buf), c)
	want := `level=INFO msg="cache report" run=test dir=` + dir + " hits=1 misses=1\n"
	if buf.String() != want {
		t.Errorf("cache report:\n got %q\nwant %q", buf.String(), want)
	}
}

// TestReportCacheNil pins that a cacheless run logs nothing.
func TestReportCacheNil(t *testing.T) {
	var buf bytes.Buffer
	reportCache(goldenLogger(&buf), nil)
	if buf.Len() != 0 {
		t.Errorf("nil cache logged %q", buf.String())
	}
}

// TestNewLoggerLevels pins the -log-level contract: the threshold
// filters records, every record carries the run tag, and an unknown
// level is a usage error.
func TestNewLoggerLevels(t *testing.T) {
	var buf bytes.Buffer
	log, err := newLogger(&buf, "warn", "abc123")
	if err != nil {
		t.Fatal(err)
	}
	log.Info("suppressed")
	log.Warn("kept")
	out := buf.String()
	if strings.Contains(out, "suppressed") {
		t.Errorf("info record passed a warn threshold: %q", out)
	}
	if !strings.Contains(out, "kept") || !strings.Contains(out, "run=abc123") {
		t.Errorf("warn record missing or untagged: %q", out)
	}
	if _, err := newLogger(&buf, "loud", "x"); err == nil {
		t.Error("unknown level accepted")
	}
}

// TestInterruptFlushes pins the first SIGINT's orderly stop: a full-size
// fig5a interrupted once -http lists its run still prints its table, with
// the interrupted cells as null and each named in errors, writes
// -metrics-out, does not wait out -http-linger, and exits 3.
func TestInterruptFlushes(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "metrics.json")
	cmd := exec.Command(os.Args[0], "-exp", "fig5a", "-json", "-parallel", "2",
		"-http", "127.0.0.1:0", "-http-linger", "10m", "-metrics-out", metrics)
	cmd.Env = append(os.Environ(), "PDQSIM_MAIN=1")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	pipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	timer := time.AfterFunc(2*time.Minute, func() { cmd.Process.Kill() })
	defer timer.Stop()
	var stderr strings.Builder
	lines := bufio.NewScanner(pipe)
	for lines.Scan() {
		stderr.WriteString(lines.Text() + "\n")
		if _, addr, ok := strings.Cut(lines.Text(), " addr="); ok {
			// Signal once fig5a has started: a signal before it would
			// rightly leave it unrun, with no table to print.
			addr, _, _ = strings.Cut(addr, " ")
			for !strings.Contains(string(exchange(t, addr, "GET /runs HTTP/1.1\r\nHost: x\r\n\r\n").body), "fig5a") {
				time.Sleep(time.Millisecond)
			}
			if err := cmd.Process.Signal(os.Interrupt); err != nil {
				t.Fatal(err)
			}
		}
	}
	err = cmd.Wait()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 3 {
		t.Fatalf("exit %v, want status 3; stderr:\n%s", err, &stderr)
	}
	var tables []struct {
		Name   string `json:"name"`
		Errors []struct {
			Row, Col, Msg string
		} `json:"errors"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &tables); err != nil || len(tables) != 1 || tables[0].Name != "fig5a" {
		t.Fatalf("stdout is not fig5a's JSON table (%v):\n%s", err, stdout.Bytes())
	}
	errs := tables[0].Errors
	if len(errs) == 0 {
		t.Fatalf("no cell is named as interrupted; stderr:\n%s", &stderr)
	}
	for _, e := range errs {
		if e.Row == "" || e.Col == "" || !strings.Contains(e.Msg, "interrupted") {
			t.Errorf("error %+v does not name an interrupted cell", e)
		}
	}
	if _, err := os.Stat(metrics); err != nil {
		t.Errorf("-metrics-out not written: %v", err)
	}
	if strings.Contains(stderr.String(), "holding observability server open") {
		t.Error("an interrupted run waited out -http-linger")
	}
}

// TestInterruptBeforeTheFirstSpec pins that a run interrupted before its
// first spec starts runs none, says so, and gives -json an empty list to
// print, [] and not null.
func TestInterruptBeforeTheFirstSpec(t *testing.T) {
	intr := &interrupter{done: make(chan struct{})}
	close(intr.done)
	var log bytes.Buffer
	tables := runSpecs(goldenLogger(&log), []*scenario.Spec{exp.Specs["fig3a"]()}, scenario.Opts{Quick: true}, intr, false)
	if b, err := json.Marshal(tables); err != nil || string(b) != "[]" {
		t.Errorf("tables marshal to %s (%v), want []", b, err)
	}
	if want := `level=WARN msg="interrupted: specs not run" run=test skipped=1` + "\n"; log.String() != want {
		t.Errorf("log %q, want %q", log.String(), want)
	}
}
