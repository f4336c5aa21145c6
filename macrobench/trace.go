package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Span kinds, outermost first. Each kind's parent is the one before it:
// the generator's client request, the router's handler, the router's
// upstream hop to a shard, and the shard's handler.
const (
	kindClient uint8 = iota
	kindRouter
	kindHop
	kindShard
)

var kindNames = [...]string{"client", "router", "hop", "shard"}

// Nodes a span can run on.
const (
	nodeLoadgen uint8 = iota
	nodeRouter
	nodePrimary
	nodeFollower
)

var nodeNames = [...]string{"loadgen", "router", "primary", "follower"}

// noParent marks the root span of a request.
const noParent = 0xff

// span is one timed interval at a layer boundary. Spans of one request
// share id; times are nanoseconds since the tracer started.
type span struct {
	id         uint64
	start, end int64
	kind       uint8
	parent     uint8
	node       uint8
	op         opClass
}

// tracer keeps spans in a slice allocated up front, so recording costs
// one atomic add and a store; they are written out only when the run
// ends. Spans past the capacity are counted and dropped.
type tracer struct {
	base    time.Time
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) record(id uint64, kind, node uint8, op opClass, start, end int64) {
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return
	}
	parent := uint8(noParent)
	if kind > kindClient {
		parent = kind - 1
	}
	t.spans[i] = span{id: id, start: start, end: end, kind: kind, parent: parent, node: node, op: op}
}

// recorded returns the spans kept so far.
func (t *tracer) recorded() []span {
	return t.spans[:min(t.n.Load(), int64(len(t.spans)))]
}

// tracedPrefix marks the request ids the generator wants traced; ids
// with any other prefix pass through the wrappers untimed, which is what
// lets one window compare traced and untraced requests.
const tracedPrefix = 't'

const ridKey = "X-Gt-Request-Id" // canonical form of X-GT-Request-Id

func tracedID(h http.Header) (uint64, bool) {
	v := h[ridKey]
	if len(v) == 0 || len(v[0]) < 2 || v[0][0] != tracedPrefix {
		return 0, false
	}
	id, err := strconv.ParseUint(v[0][1:], 10, 64)
	return id, err == nil
}

// wrap times traced requests through h as spans of the given kind.
func (t *tracer) wrap(kind, node uint8, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, ok := tracedID(r.Header)
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		h.ServeHTTP(w, r)
		t.record(id, kind, node, classify(r.Method, r.URL.Path), start, t.now())
	})
}

// hopTransport is the router's upstream RoundTripper: a traced request's
// hop runs from the send until its response body is drained or closed,
// which covers the router relaying it.
type hopTransport struct {
	t     *tracer
	next  http.RoundTripper
	nodes map[string]uint8 // backend host:port -> node
}

func (ht *hopTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id, ok := tracedID(req.Header)
	if !ok {
		return ht.next.RoundTrip(req)
	}
	node := ht.nodes[req.URL.Host]
	op := classify(req.Method, req.URL.Path)
	start := ht.t.now()
	resp, err := ht.next.RoundTrip(req)
	if err != nil {
		ht.t.record(id, kindHop, node, op, start, ht.t.now())
		return nil, err
	}
	resp.Body = &hopBody{ReadCloser: resp.Body, done: func() { ht.t.record(id, kindHop, node, op, start, ht.t.now()) }}
	return resp, nil
}

// hopBody ends its hop span at the first EOF or Close.
type hopBody struct {
	io.ReadCloser
	done func()
}

func (b *hopBody) finish() {
	if b.done != nil {
		b.done()
		b.done = nil
	}
}

func (b *hopBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *hopBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

// layerTimes is one traced request's time split across the layers, in
// microseconds. Edge-cache hits have no hop and no shard time.
type layerTimes struct {
	op                         opClass
	client, router, hop, shard float64
	upstream                   bool
}

// attribute joins the spans of each request and splits its time: router
// self time is the router span minus its hops, hop time is the hop span
// minus the shard span inside it, and shard time is the shard handler.
func attribute(spans []span) []layerTimes {
	type acc struct {
		op                         opClass
		client, router, hop, shard int64
		hasClient, hasRouter       bool
		hops                       int
	}
	byID := make(map[uint64]*acc)
	for _, s := range spans {
		a := byID[s.id]
		if a == nil {
			a = &acc{op: s.op}
			byID[s.id] = a
		}
		d := s.end - s.start
		switch s.kind {
		case kindClient:
			a.client, a.hasClient = d, true
		case kindRouter:
			a.router, a.hasRouter = d, true
		case kindHop:
			a.hop += d
			a.hops++
		case kindShard:
			a.shard += d
		}
	}
	out := make([]layerTimes, 0, len(byID))
	for _, a := range byID {
		if !a.hasClient || !a.hasRouter {
			continue
		}
		us := func(ns int64) float64 { return float64(ns) / 1e3 }
		out = append(out, layerTimes{
			op:       a.op,
			client:   us(a.client),
			router:   us(a.router - a.hop),
			hop:      us(a.hop - a.shard),
			shard:    us(a.shard),
			upstream: a.hops > 0,
		})
	}
	return out
}

// writeSpans dumps the spans as JSON lines, one object per span.
func writeSpans(path string, t *tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range t.recorded() {
		parent := ""
		if s.parent != noParent {
			parent = kindNames[s.parent]
		}
		fmt.Fprintf(w, `{"id":"%c%d","name":%q,"parent":%q,"node":%q,"op":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			tracedPrefix, s.id, kindNames[s.kind], parent, nodeNames[s.node], opNames[s.op], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// classify maps a request onto the benchmark's operation classes — not
// the server's endpoint classes, which file group creation under collab.
func classify(method, path string) opClass {
	if method != http.MethodPost {
		return opRead
	}
	switch {
	case strings.HasSuffix(path, "/groups"):
		return opGroup
	case strings.HasSuffix(path, "/packages"):
		return opBuild
	case strings.HasSuffix(path, "/ops"):
		return opCustomize
	case strings.HasSuffix(path, "/refine"):
		return opRefine
	}
	return opOther
}
