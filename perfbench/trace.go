package main

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"smartdrill/internal/server"
)

// Tracing for the per-layer run. Spans are recorded from the benchmark's
// own files around the calls into each layer: the SDK call, the HTTP
// attempt under it (its RoundTripper tags the request), the server handler
// (an http.Handler around Server.Handler, correlated by that tag) and the
// session backend (a SessionBackend decorator, parented to the in-flight
// request on the same session id). Spans stay in memory until the run
// ends. None of this is constructed when tracing is off.

// requestHeader carries the HTTP attempt's span id from the client's
// RoundTripper to the handler wrapper.
const requestHeader = "X-Perfbench-Span"

// span is one timed interval of one layer.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Req is the id of the SDK operation the span belongs to ("" for
	// background work, such as snapshots written by background refiners).
	Req   string        `json:"req,omitempty"`
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Status is the HTTP status of handler spans; Bytes the response bytes
	// of attempt spans and the record bytes of persist spans.
	Status int   `json:"status,omitempty"`
	Bytes  int64 `json:"bytes,omitempty"`
	Err    bool  `json:"err,omitempty"`
}

func (s *span) dur() time.Duration { return s.End - s.Start }

type tracer struct {
	epoch time.Time
	next  atomic.Int64

	mu    sync.Mutex
	spans []*span
	// bySession maps a session id to its in-flight handler span; creates
	// lists in-flight create handlers, whose session id is not known yet.
	bySession map[string]*span
	creates   []*span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), bySession: map[string]*span{}}
}

// begin opens a span. Spans are kept even if never ended.
func (t *tracer) begin(name string, parent *span, req string) *span {
	s := &span{ID: t.next.Add(1), Name: name, Req: req, Start: time.Since(t.epoch)}
	if parent != nil {
		s.Parent = parent.ID
		if req == "" {
			s.Req = parent.Req
		}
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

func (t *tracer) end(s *span) {
	end := time.Since(t.epoch)
	t.mu.Lock()
	s.End = end
	t.mu.Unlock()
}

// snapshot returns the recorded spans (safe once the run has stopped).
func (t *tracer) snapshot() []*span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*span(nil), t.spans...)
}

// write dumps every span as one JSON object per line, gzip-compressed.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	enc := json.NewEncoder(zw)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type spanKey struct{}

func withSpan(ctx context.Context, s *span) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

func spanFrom(ctx context.Context) *span {
	s, _ := ctx.Value(spanKey{}).(*span)
	return s
}

// tracingTransport records one span per HTTP attempt under the SDK call's
// span and tags the request so the handler span can name it as parent.
// The span ends when the response body is closed, so it covers reading a
// whole SSE stream.
type tracingTransport struct {
	next http.RoundTripper
	t    *tracer
}

func (tt *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	sp := tt.t.begin("http.attempt", spanFrom(req.Context()), "")
	req = req.Clone(req.Context())
	req.Header.Set(requestHeader, strconv.FormatInt(sp.ID, 10))
	resp, err := tt.next.RoundTrip(req)
	if err != nil {
		sp.Err = true
		tt.t.end(sp)
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, sp: sp, t: tt.t}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	sp   *span
	t    *tracer
	n    int64
	once sync.Once
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.t.mu.Lock()
		b.sp.Bytes = b.n
		b.t.mu.Unlock()
		b.t.end(b.sp)
	})
	return err
}

// routeOf names the API route of a request path.
func routeOf(method, path string) (route, session string) {
	rest, ok := strings.CutPrefix(path, "/v1/sessions")
	if !ok {
		return "other", ""
	}
	rest = strings.TrimPrefix(rest, "/")
	if rest == "" {
		return "create", ""
	}
	id, op, _ := strings.Cut(rest, "/")
	switch {
	case op == "" && method == http.MethodDelete:
		return "delete", id
	case op == "drill/stream":
		return "stream", id
	case op == "drill", op == "collapse", op == "tree":
		return op, id
	}
	return "other", id
}

// wrapHandler records one span per request around the server's handler,
// parented to the client attempt named by the request header.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route, sid := routeOf(r.Method, r.URL.Path)
		var parent *span
		if id, err := strconv.ParseInt(r.Header.Get(requestHeader), 10, 64); err == nil {
			parent = &span{ID: id}
		}
		sp := t.begin("server."+route, parent, "")
		t.mu.Lock()
		if sid != "" {
			t.bySession[sid] = sp
		} else if route == "create" {
			t.creates = append(t.creates, sp)
		}
		t.mu.Unlock()
		sw := &statusWriter{ResponseWriter: w}
		h.ServeHTTP(sw, r)
		t.mu.Lock()
		if sid != "" && t.bySession[sid] == sp {
			delete(t.bySession, sid)
		}
		for i, c := range t.creates {
			if c == sp {
				t.creates = append(t.creates[:i], t.creates[i+1:]...)
				break
			}
		}
		sp.Status = sw.status
		if sp.Status == 0 {
			sp.Status = http.StatusOK
		}
		t.mu.Unlock()
		t.end(sp)
	})
}

// inflightFor returns the handler span a backend call on session id runs
// under: the in-flight request on that session, else the oldest in-flight
// create (whose session id the wrapper cannot know yet), else nil — work
// outside any request, such as a background refiner's snapshot.
func (t *tracer) inflightFor(id string) *span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if sp, ok := t.bySession[id]; ok {
		return sp
	}
	if len(t.creates) > 0 {
		return t.creates[0]
	}
	return nil
}

// statusWriter records the response status and forwards Flush for SSE.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(status int) {
	if sw.status == 0 {
		sw.status = status
	}
	sw.ResponseWriter.WriteHeader(status)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(p)
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// tracedBackend decorates the session backend with persist spans.
type tracedBackend struct {
	inner server.SessionBackend
	t     *tracer
}

func (b *tracedBackend) Save(id string, data []byte) error {
	sp := b.t.begin("persist.save", b.t.inflightFor(id), "")
	err := b.inner.Save(id, data)
	b.t.mu.Lock()
	sp.Bytes, sp.Err = int64(len(data)), err != nil
	b.t.mu.Unlock()
	b.t.end(sp)
	return err
}

func (b *tracedBackend) Load(id string) ([]byte, error) {
	sp := b.t.begin("persist.load", b.t.inflightFor(id), "")
	data, err := b.inner.Load(id)
	b.t.mu.Lock()
	sp.Bytes = int64(len(data))
	b.t.mu.Unlock()
	b.t.end(sp)
	return data, err
}

func (b *tracedBackend) Delete(id string) error {
	sp := b.t.begin("persist.delete", b.t.inflightFor(id), "")
	err := b.inner.Delete(id)
	b.t.end(sp)
	return err
}

func (b *tracedBackend) List() ([]string, error) {
	sp := b.t.begin("persist.list", nil, "")
	ids, err := b.inner.List()
	b.t.end(sp)
	return ids, err
}
