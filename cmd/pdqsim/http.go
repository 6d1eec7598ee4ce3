// The -http transport: a TCP listener and a minimal HTTP/1.1 responder
// over obsv.Route. pdqsim does not link net/http: a process maps the code
// it links whether or not -http is given, and net/http brings its TLS,
// x509 and HTTP/2 stacks to answer what are here plain GETs (DESIGN.md
// §13). The responder reads one GET or HEAD per connection within fixed
// bounds and a read deadline, answers it with Content-Length and
// Connection: close, and closes. The endpoints that read the wall clock
// (the timed CPU profile and execution trace) live here, beside the rest
// of the command's clock reads.

package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"strings"
	"time"

	"pdq/internal/obsv"
)

// What the responder reads of a request, and for how long.
const (
	maxRequestLine = 4 << 10          // request-line bytes, line end included; a longer line is answered 414
	maxHeader      = 16 << 10         // header-section bytes; a longer section is answered 431
	requestTimeout = 10 * time.Second // from accept to the end of the header section
	maxSeconds     = 3600             // longest timed profile or trace
	maxConns       = 16               // connections answered at once; the next wait in the accept queue
)

// statusText names the statuses the responder answers with.
var statusText = map[int]string{
	200: "OK",
	400: "Bad Request",
	404: "Not Found",
	405: "Method Not Allowed",
	414: "URI Too Long",
	431: "Request Header Fields Too Large",
	500: "Internal Server Error",
}

// httpServer answers the -http endpoints on one listener.
type httpServer struct {
	obs     *obsv.Observer
	ln      net.Listener
	timeout time.Duration // read deadline for a whole request, from accept
	log     *slog.Logger
}

// serve accepts connections until the listener is closed and answers
// each on its own goroutine, at most maxConns at once.
func (s *httpServer) serve() {
	busy := make(chan struct{}, maxConns)
	for {
		busy <- struct{}{}
		c, err := s.ln.Accept()
		if err != nil {
			if !errors.Is(err, net.ErrClosed) {
				s.log.Error("observability server failed", "err", err)
			}
			return
		}
		go func() {
			s.answer(c)
			<-busy
		}()
	}
}

// response is one answer: its status, content type and body.
type response struct {
	status int
	ctype  string
	body   []byte
}

// failure is the plain-text answer for an error status.
func failure(status int, msg string) response {
	if msg == "" {
		msg = strings.ToLower(statusText[status])
	}
	return response{status, obsv.ContentText, []byte(fmt.Sprintf("%d %s\n", status, msg))}
}

// answer reads one request from c, writes its response and closes c. A
// client that goes silent or away before its request is whole gets no
// answer.
func (s *httpServer) answer(c net.Conn) {
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(s.timeout))
	method, target, status := readRequest(bufio.NewReaderSize(c, maxRequestLine))
	var res response
	switch status {
	case 0:
		return
	case 200:
		res = s.route(target)
	default:
		res = failure(status, "")
	}
	head := fmt.Sprintf("HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n",
		res.status, statusText[res.status], res.ctype, len(res.body))
	if res.status == 405 {
		head += "Allow: GET, HEAD\r\n"
	}
	out := net.Buffers{[]byte(head + "Connection: close\r\n\r\n")}
	if method != "HEAD" {
		out = append(out, res.body)
	}
	c.SetWriteDeadline(time.Now().Add(s.timeout))
	if _, err := out.WriteTo(c); err != nil {
		return
	}
	// Half-close, then read what the client still sends until it closes:
	// closing with request bytes unread would send a reset, and a reset
	// can discard the answer before the client reads it.
	if tc, ok := c.(*net.TCPConn); ok && tc.CloseWrite() == nil {
		c.SetReadDeadline(time.Now().Add(time.Second))
		io.Copy(io.Discard, io.LimitReader(c, maxHeader))
	}
}

// readRequest reads a request line and header section within their
// bounds. It returns the method, the target and 200, or the error status
// to answer with; status 0 means the connection ended or timed out
// before a whole request arrived. A request line that is over long,
// malformed or names another method is answered at once, without reading
// further.
func readRequest(r *bufio.Reader) (method, target string, status int) {
	line, err := r.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) {
		return "", "", 414
	}
	if err != nil {
		return "", "", 0
	}
	fields := strings.Split(string(trimEOL(line)), " ")
	if len(fields) != 3 || fields[0] == "" || !strings.HasPrefix(fields[1], "/") ||
		(fields[2] != "HTTP/1.1" && fields[2] != "HTTP/1.0") {
		return "", "", 400
	}
	method, target = fields[0], fields[1]
	if method != "GET" && method != "HEAD" {
		return method, target, 405
	}
	for n := 0; ; {
		h, err := r.ReadSlice('\n')
		if n += len(h); errors.Is(err, bufio.ErrBufferFull) || n > maxHeader {
			return method, target, 431
		}
		if err != nil {
			return method, target, 0
		}
		if len(trimEOL(h)) == 0 {
			return method, target, 200
		}
	}
}

// trimEOL strips a line's LF or CRLF end.
func trimEOL(b []byte) []byte {
	b = bytes.TrimSuffix(b, []byte("\n"))
	return bytes.TrimSuffix(b, []byte("\r"))
}

// route answers a GET of target: the index, the command line and the
// timed profiles here, everything else through obsv.Route.
func (s *httpServer) route(target string) response {
	path, raw, _ := strings.Cut(target, "?")
	query := map[string]string{}
	for _, kv := range strings.Split(raw, "&") {
		k, v, _ := strings.Cut(kv, "=")
		if _, seen := query[k]; !seen {
			query[k] = v
		}
	}
	switch path {
	case "/debug/pprof", obsv.ProfilePath:
		return response{200, obsv.ContentText, index()}
	case obsv.ProfilePath + "cmdline":
		return response{200, obsv.ContentText, []byte(strings.Join(os.Args, "\x00"))}
	case obsv.ProfilePath + "profile":
		return timed(query["seconds"], 30, pprof.StartCPUProfile, pprof.StopCPUProfile)
	case obsv.ProfilePath + "trace":
		return timed(query["seconds"], 1, trace.Start, trace.Stop)
	}
	e, ok := s.obs.Route(path, query)
	if !ok {
		return failure(404, "page not found")
	}
	var b bytes.Buffer
	if err := e.Write(&b); err != nil {
		return failure(500, err.Error())
	}
	return response{200, e.ContentType, b.Bytes()}
}

// timed records a CPU profile or an execution trace for the requested
// seconds (def when the value is absent, not a number or not positive)
// and answers with it.
func timed(seconds string, def float64, start func(io.Writer) error, stop func()) response {
	sec, err := strconv.ParseFloat(seconds, 64)
	if err != nil || !(sec > 0) {
		sec = def
	}
	if sec > maxSeconds {
		return failure(400, fmt.Sprintf("seconds above %d", maxSeconds))
	}
	var b bytes.Buffer
	if err := start(&b); err != nil {
		return failure(500, err.Error())
	}
	time.Sleep(time.Duration(sec * float64(time.Second)))
	stop()
	return response{200, obsv.ContentBinary, b.Bytes()}
}

// index lists what the server answers, each runtime/pprof profile with
// its current count.
func index() []byte {
	var b bytes.Buffer
	for _, p := range []string{"/metrics", "/runs", "/metrics.json", obsv.ProfilePath + "cmdline",
		obsv.ProfilePath + "profile?seconds=N", obsv.ProfilePath + "trace?seconds=N"} {
		fmt.Fprintln(&b, p)
	}
	for _, p := range pprof.Profiles() {
		fmt.Fprintf(&b, "%s%s?debug=N  count=%d\n", obsv.ProfilePath, p.Name(), p.Count())
	}
	return b.Bytes()
}
