package main

import (
	"bufio"
	"io"
	"log/slog"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	"pdq/internal/obsv"
)

// startHTTP serves o on a loopback port with the given request timeout
// and returns the address; the listener closes when the test ends.
func startHTTP(t *testing.T, o *obsv.Observer, timeout time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	srv := &httpServer{obs: o, ln: ln, timeout: timeout, log: slog.New(slog.NewTextHandler(io.Discard, nil))}
	go srv.serve()
	return ln.Addr().String()
}

// reply is one parsed response.
type reply struct {
	status int
	header map[string]string
	body   []byte
}

// exchange writes req on a fresh connection, leaves it open for writing,
// and reads the answer to the server's close.
func exchange(t *testing.T, addr, req string) reply {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(20 * time.Second))
	if _, err := io.WriteString(c, req); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(c)
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatalf("%.40q: no status line: %v", req, err)
	}
	f := strings.Fields(line)
	if len(f) < 2 || f[0] != "HTTP/1.1" {
		t.Fatalf("%.40q: status line %q", req, line)
	}
	rep := reply{header: map[string]string{}}
	if rep.status, err = strconv.Atoi(f[1]); err != nil {
		t.Fatalf("%.40q: status line %q", req, line)
	}
	for {
		h, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("%.40q: header section: %v", req, err)
		}
		if h == "\r\n" {
			break
		}
		k, v, ok := strings.Cut(strings.TrimSuffix(h, "\r\n"), ": ")
		if !ok || !strings.HasSuffix(h, "\r\n") {
			t.Fatalf("%.40q: header line %q", req, h)
		}
		rep.header[k] = v
	}
	if rep.body, err = io.ReadAll(r); err != nil {
		t.Fatalf("%.40q: body: %v", req, err)
	}
	return rep
}

// TestHTTPResponder pins the -http responder on a socket: every endpoint
// answers 200 with its content type and an exact Content-Length, HEAD
// without a body, and the bounds answer as they should: 404 for a path
// nothing serves, 405 for another method, 400 for a malformed request
// line, 414 for an over-long one before its end arrives, 431 for an
// over-long header section, and nothing but a close to a silent client
// once the read deadline passes.
func TestHTTPResponder(t *testing.T) {
	o := obsv.New(nil)
	run := o.StartRun("smoke")
	run.AddTotal(1)
	run.CellEnd(run.CellStart(), obsv.Cell{})
	addr := startHTTP(t, o, 20*time.Second)
	get := func(target string) string { return "GET " + target + " HTTP/1.1\r\nHost: x\r\n\r\n" }

	gzipped := string([]byte{0x1f, 0x8b})
	for _, c := range []struct{ target, ctype, prefix string }{
		{"/metrics", "text/plain; version=0.0.4; charset=utf-8", "# HELP pdq_"},
		{"/runs", "application/json", "["},
		{"/metrics.json", "application/json", "{"},
		{"/debug/pprof/", "text/plain; charset=utf-8", "/metrics\n"},
		{"/debug/pprof", "text/plain; charset=utf-8", "/metrics\n"},
		{"/debug/pprof/cmdline", "text/plain; charset=utf-8", strings.Join(os.Args, "\x00")},
		{"/debug/pprof/heap", "application/octet-stream", gzipped},
		{"/debug/pprof/goroutine?debug=1", "text/plain; charset=utf-8", "goroutine profile: "},
		{"/debug/pprof/profile?seconds=0.05", "application/octet-stream", gzipped},
		{"/debug/pprof/trace?seconds=0.05", "application/octet-stream", "go 1."},
	} {
		r := exchange(t, addr, get(c.target))
		if r.status != 200 || r.header["Content-Type"] != c.ctype || r.header["Connection"] != "close" ||
			!strings.HasPrefix(string(r.body), c.prefix) {
			t.Errorf("GET %s: %d %v %.40q; want 200, %q, a body starting %.20q", c.target, r.status, r.header, r.body, c.ctype, c.prefix)
		}
		if n, err := strconv.Atoi(r.header["Content-Length"]); err != nil || n != len(r.body) {
			t.Errorf("GET %s: Content-Length %q for a %d-byte body", c.target, r.header["Content-Length"], len(r.body))
		}
	}
	if !strings.Contains(string(exchange(t, addr, get("/debug/pprof/")).body), "/debug/pprof/heap?debug=N") {
		t.Error("the index does not list the heap profile")
	}
	whole := exchange(t, addr, get("/metrics.json"))
	head := exchange(t, addr, "HEAD /metrics.json HTTP/1.1\r\n\r\n")
	if head.status != 200 || len(head.body) != 0 || head.header["Content-Length"] != strconv.Itoa(len(whole.body)) ||
		head.header["Content-Type"] != "application/json" {
		t.Errorf("HEAD /metrics.json: %d %v and %d body bytes; want GET's headers and no body", head.status, head.header, len(head.body))
	}

	for _, c := range []struct {
		req    string
		status int
	}{
		{get("/nosuch"), 404},
		{get("/debug/pprof/symbol"), 404},
		{"POST /metrics HTTP/1.1\r\nContent-Length: 0\r\n\r\n", 405},
		{"NONSENSE\r\n\r\n", 400},
		{"GET /metrics\r\n\r\n", 400},
		{"GET metrics HTTP/1.1\r\n\r\n", 400},
		{"GET /metrics HTTP/2.0\r\n\r\n", 400},
		{"GET  /metrics HTTP/1.1\r\n\r\n", 400},
		{"GET /" + strings.Repeat("a", maxRequestLine), 414},
		{"GET /metrics HTTP/1.1\r\n" + strings.Repeat("X-Pad: "+strings.Repeat("p", 100)+"\r\n", maxHeader/100), 431},
	} {
		r := exchange(t, addr, c.req)
		if r.status != c.status || r.header["Content-Length"] != strconv.Itoa(len(r.body)) || r.header["Connection"] != "close" {
			t.Errorf("%.40q: %d %v; want %d, an exact Content-Length and Connection: close", c.req, r.status, r.header, c.status)
		}
		if c.status == 405 && r.header["Allow"] != "GET, HEAD" {
			t.Errorf("405 without Allow: GET, HEAD: %v", r.header)
		}
	}

	// A client that sends nothing is dropped, unanswered, at the deadline.
	const deadline = 200 * time.Millisecond
	quick := startHTTP(t, o, deadline)
	c, err := net.Dial("tcp", quick)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(20 * time.Second))
	start := time.Now()
	got, err := io.ReadAll(c)
	if err != nil || len(got) != 0 || time.Since(start) < deadline {
		t.Errorf("silent client: read %q, %v after %v; want a close with no answer after %v", got, err, time.Since(start), deadline)
	}
}

// TestNoHTTPStack keeps net/http out of pdqsim and pdqtopo: a process
// maps the code it links, -http or not, and net/http brings TLS, x509
// and HTTP/2 with it (DESIGN.md §13).
func TestNoHTTPStack(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go tool on PATH")
	}
	for _, pkg := range []string{".", "../pdqtopo"} {
		out, err := exec.Command("go", "list", "-deps", pkg).Output()
		if err != nil {
			t.Fatalf("go list -deps %s: %v", pkg, err)
		}
		for _, p := range strings.Fields(string(out)) {
			if p == "net/http" || strings.HasPrefix(p, "net/http/") || p == "crypto/tls" || p == "crypto/x509" ||
				strings.HasPrefix(p, "vendor/golang.org/x/net/http2") {
				t.Errorf("%s links %s", pkg, p)
			}
		}
	}
}
