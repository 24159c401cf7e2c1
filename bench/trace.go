package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"asap/internal/transport"
)

// Tracing is done from outside the program under test: the benchmark
// records a span around each call it makes into a layer's public
// functions, and around every transport.Transport call through a
// decorator it owns. Spans stay in memory and are written as JSONL when
// the run ends. One operation is in flight at a time, so wall time
// inside a span is attributable to it.

// span is one recorded interval. Times are nanoseconds since the
// tracer's epoch.
type span struct {
	id, parent int32 // parent -1 = root of its op
	op         int32
	name       uint16 // index into tracer.names
	leaf       bool   // a decorator span: never a parent, may be cut short (see analyse)
	start, end int64
}

// tracer records spans while on. A nil tracer (untraced runs) and a
// tracer that is off record nothing; every method is nil-safe.
type tracer struct {
	mu    sync.Mutex
	on    bool
	epoch time.Time
	spans []span
	stack []int32 // open driver spans, innermost last
	op    int32
	names []spanName
	index map[spanName]uint16
}

type spanName struct{ layer, name string }

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), index: make(map[spanName]uint16), op: -1}
}

func (t *tracer) active() bool { return t != nil && t.on }

// set switches recording on or off; a nil tracer stays off.
func (t *tracer) set(on bool) {
	if t != nil {
		t.on = on
	}
}

func (t *tracer) nameID(layer, name string) uint16 {
	k := spanName{layer, name}
	id, ok := t.index[k]
	if !ok {
		id = uint16(len(t.names))
		t.names = append(t.names, k)
		t.index[k] = id
	}
	return id
}

func (t *tracer) open(layer, name string, push bool) int32 {
	if !t.active() {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{id: id, parent: parent, op: t.op, name: t.nameID(layer, name), leaf: !push, start: now, end: -1})
	if push {
		t.stack = append(t.stack, id)
	}
	t.mu.Unlock()
	return id
}

// beginOp opens the root span of a new operation.
func (t *tracer) beginOp(layer, name string) int32 {
	if !t.active() {
		return -1
	}
	t.mu.Lock()
	t.op++
	t.stack = t.stack[:0]
	t.mu.Unlock()
	return t.open(layer, name, true)
}

// begin opens a driver span: a child of the innermost open driver span,
// and the parent of whatever opens before it ends.
func (t *tracer) begin(layer, name string) int32 { return t.open(layer, name, true) }

// beginLeaf opens a span that never becomes a parent — decorator spans,
// which may overlap one another when scheduler tasks fan out.
func (t *tracer) beginLeaf(layer, name string) int32 { return t.open(layer, name, false) }

// end closes a span opened by beginOp, begin or beginLeaf.
func (t *tracer) end(id int32) {
	if id < 0 || t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].end = now
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	}
	t.mu.Unlock()
}

// spanAgg sums one (layer, name) over a trace.
type spanAgg struct {
	count  int64
	total  time.Duration
	self   time.Duration // total minus the part child spans cover
	durs   []float64     // per-span durations in µs
	selves []float64     // per-span self times in µs
}

// traceSummary is the analysed trace.
type traceSummary struct {
	byName    map[string]*spanAgg // "layer.name"
	opWall    time.Duration       // summed root-span durations
	cut       int                 // decorator spans cut short at their parent's end
	malformed []string            // well-formedness violations (empty = sound)
}

// analyse computes self times (span minus the union of its children's
// intervals) and checks the tree: every span closed, every child inside
// its parent, self times non-negative, exactly one root per op.
//
// One kind of span is cut to fit first: a decorator span around a call
// whose caller gave up on it — a close-set ping that outlived its timeout
// keeps running as an abandoned task and returns after the driver span
// that started it has closed, or never. Such a span ends, for the
// ledger, where its parent ends; cut counts them.
func (t *tracer) analyse() *traceSummary {
	sum := &traceSummary{byName: make(map[string]*spanAgg)}
	if t == nil {
		return sum
	}
	bad := func(format string, args ...interface{}) {
		if len(sum.malformed) < 8 {
			sum.malformed = append(sum.malformed, fmt.Sprintf(format, args...))
		}
	}
	children := make(map[int32][]int32)
	roots := make(map[int32]int)
	for i := range t.spans {
		s := &t.spans[i]
		if s.leaf && s.parent >= 0 {
			// Parents open before their children, so p.end is final here.
			if p := &t.spans[s.parent]; p.end >= p.start && (s.end < s.start || s.end > p.end) {
				s.end = p.end
				sum.cut++
			}
		}
		if s.end < s.start {
			bad("span %d (%s) never closed", s.id, t.label(s))
			s.end = s.start
		}
		if s.parent < 0 {
			roots[s.op]++
			continue
		}
		p := &t.spans[s.parent]
		if s.start < p.start || (p.end >= p.start && s.end > p.end) {
			bad("span %d (%s) leaves its parent %d (%s)", s.id, t.label(s), p.id, t.label(p))
		}
		children[s.parent] = append(children[s.parent], s.id)
	}
	for op, n := range roots {
		if n != 1 {
			bad("op %d has %d roots", op, n)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		dur := s.end - s.start
		covered := int64(0)
		if kids := children[s.id]; len(kids) > 0 {
			sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].start < t.spans[kids[b]].start })
			curS, curE := t.spans[kids[0]].start, t.spans[kids[0]].end
			for _, k := range kids[1:] {
				c := &t.spans[k]
				if c.start > curE {
					covered += curE - curS
					curS, curE = c.start, c.end
				} else if c.end > curE {
					curE = c.end
				}
			}
			covered += curE - curS
		}
		self := dur - covered
		if self < 0 {
			bad("span %d (%s) has negative self time", s.id, t.label(s))
			self = 0
		}
		key := t.label(s)
		a := sum.byName[key]
		if a == nil {
			a = &spanAgg{}
			sum.byName[key] = a
		}
		a.count++
		a.total += time.Duration(dur)
		a.self += time.Duration(self)
		a.durs = append(a.durs, float64(dur)/1e3)
		a.selves = append(a.selves, float64(self)/1e3)
		if s.parent < 0 {
			sum.opWall += time.Duration(dur)
		}
	}
	return sum
}

func (t *tracer) label(s *span) string {
	n := t.names[s.name]
	return n.layer + "." + n.name
}

// get returns the aggregate for "layer.name" (an empty one if absent).
func (s *traceSummary) get(key string) *spanAgg {
	if a := s.byName[key]; a != nil {
		return a
	}
	return &spanAgg{}
}

// writeJSONL writes every span as one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for i := range t.spans {
		s := &t.spans[i]
		n := t.names[s.name]
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"op_id":%d,"layer":%q,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.id, s.parent, s.op, n.layer, n.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// --- Decorators for the two interfaces everything crosses ---

// countingTransport wraps a transport.Transport: it always counts RPCs
// (msgs_per_call needs the count in untraced runs too) and, while the
// tracer is on, records one leaf span per call, named by message type.
// Calls addressed to the bootstrap are named apart, so its share shows.
type countingTransport struct {
	inner     transport.Transport
	tr        *tracer
	bootstrap transport.Addr

	mu    sync.Mutex
	calls int64
}

func newCountingTransport(inner transport.Transport, tr *tracer, bootstrap transport.Addr) *countingTransport {
	return &countingTransport{inner: inner, tr: tr, bootstrap: bootstrap}
}

func (c *countingTransport) Serve(addr transport.Addr, h transport.Handler) (transport.Addr, error) {
	return c.inner.Serve(addr, h)
}

func (c *countingTransport) Call(to transport.Addr, req *transport.Message) (*transport.Message, error) {
	typ := req.Type // read before the call: the callee may recycle req
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	id := int32(-1)
	if c.tr.active() {
		name := "call." + typ.String()
		if to == c.bootstrap {
			name = "bootstrap." + typ.String()
		}
		id = c.tr.beginLeaf("transport", name)
	}
	resp, err := c.inner.Call(to, req)
	c.tr.end(id)
	return resp, err
}

func (c *countingTransport) Close() error { return c.inner.Close() }

// rpcs returns the number of calls made so far.
func (c *countingTransport) rpcs() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

// countingPacketNet wraps a transport.PacketNetwork with per-socket
// datagram counts (sent by the socket, delivered to its handler).
type countingPacketNet struct {
	inner transport.PacketNetwork

	mu      sync.Mutex
	sockets map[transport.Addr]*socketCount
}

type socketCount struct{ sent, delivered int64 }

func newCountingPacketNet(inner transport.PacketNetwork) *countingPacketNet {
	return &countingPacketNet{inner: inner, sockets: make(map[transport.Addr]*socketCount)}
}

func (n *countingPacketNet) ListenPacket(addr transport.Addr, h transport.PacketHandler) (transport.PacketConn, error) {
	sc := &socketCount{}
	conn, err := n.inner.ListenPacket(addr, func(from transport.Addr, data []byte) {
		n.mu.Lock()
		sc.delivered++
		n.mu.Unlock()
		h(from, data)
	})
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	n.sockets[conn.LocalAddr()] = sc
	n.mu.Unlock()
	return &countingPacketConn{PacketConn: conn, n: n, sc: sc}, nil
}

type countingPacketConn struct {
	transport.PacketConn
	n  *countingPacketNet
	sc *socketCount
}

func (c *countingPacketConn) WriteTo(to transport.Addr, data []byte) error {
	c.n.mu.Lock()
	c.sc.sent++
	c.n.mu.Unlock()
	return c.PacketConn.WriteTo(to, data)
}

// totals sums the per-socket counts.
func (n *countingPacketNet) totals() (sockets int, sent, delivered int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, sc := range n.sockets {
		sent += sc.sent
		delivered += sc.delivered
	}
	return len(n.sockets), sent, delivered
}
