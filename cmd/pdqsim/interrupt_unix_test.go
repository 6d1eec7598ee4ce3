//go:build unix

package main

import (
	"bufio"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestInterruptTwiceExitsAtOnce pins the second signal: a full-size fig5a
// interrupted once -http is listening starts its orderly stop, which is
// held writing -metrics-out to a FIFO whose buffer the test has filled and
// nobody reads; a SIGTERM sent on the "signal again" warning exits at once
// with 128+15, long before the 10 minutes of -http-linger.
func TestInterruptTwiceExitsAtOnce(t *testing.T) {
	fifo := filepath.Join(t.TempDir(), "metrics.json")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Fatal(err)
	}
	fd, err := syscall.Open(fifo, syscall.O_RDWR|syscall.O_NONBLOCK, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Close(fd)
	for _, n := range []int{4096, 1} { // pages, then the last bytes
		for buf := make([]byte, n); ; {
			if _, err := syscall.Write(fd, buf); err == syscall.EAGAIN {
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
	}
	cmd := exec.Command(os.Args[0], "-exp", "fig5a", "-json", "-parallel", "2",
		"-http", "127.0.0.1:0", "-http-linger", "10m", "-metrics-out", fifo)
	cmd.Env = append(os.Environ(), "PDQSIM_MAIN=1")
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
	var again time.Time
	lines := bufio.NewScanner(pipe)
	for lines.Scan() {
		line := lines.Text()
		stderr.WriteString(line + "\n")
		sig := os.Signal(nil)
		switch {
		case strings.Contains(line, "observability server listening"):
			sig = os.Interrupt
		case strings.Contains(line, "signal again to exit at once"):
			sig, again = syscall.SIGTERM, time.Now()
		}
		if sig != nil {
			if err := cmd.Process.Signal(sig); err != nil {
				t.Fatal(err)
			}
		}
	}
	err = cmd.Wait()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 128+int(syscall.SIGTERM) {
		t.Fatalf("exit %v, want status %d; stderr:\n%s", err, 128+int(syscall.SIGTERM), &stderr)
	}
	if again.IsZero() {
		t.Fatalf("no \"signal again\" warning; stderr:\n%s", &stderr)
	}
	if d := time.Since(again); d > 30*time.Second {
		t.Errorf("the second signal took %v to exit", d)
	}
}
