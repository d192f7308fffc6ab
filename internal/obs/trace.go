// Package obs is the zero-dependency observability kit shared by the solver
// engine, the CLIs, and partitiond. It provides three request-scoped
// facilities:
//
//   - Traces: a hierarchy of timed Spans carried through context.Context.
//     Solvers open spans at their structural phase boundaries (edge sort,
//     feasibility sweeps, prime-subpath extraction, the TEMP_S DP sweep, ...)
//     so a finished trace shows the paper's complexity terms as measured wall
//     time. Tracing is strictly opt-in per request: on a context without a
//     trace, StartSpan returns its input context and a nil *Span, and every
//     *Span method is nil-safe, so instrumented hot paths pay one context
//     lookup and zero allocations when tracing is off.
//   - Histograms: log-bucketed latency distributions with lock-free Observe
//     and Prometheus text rendering (histogram.go).
//   - Request IDs: propagation of an X-Request-ID-style correlation token
//     through contexts, so slog records, engine events, and trace roots can
//     all be joined on one ID.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	mrand "math/rand/v2"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is a 128-bit trace identifier, shared by every span of one request
// across every node it touches. The zero value means "no ID".
type TraceID [16]byte

// SpanID is a 64-bit span identifier, unique within its trace.
// The zero value means "no ID".
type SpanID [8]byte

// IsZero reports whether the ID is unset.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// IsZero reports whether the ID is unset.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// String renders the ID as 32 lowercase hex characters.
func (id TraceID) String() string {
	var dst [32]byte
	return string(hex.AppendEncode(dst[:0], id[:]))
}

// String renders the ID as 16 lowercase hex characters.
func (id SpanID) String() string {
	var dst [16]byte
	return string(hex.AppendEncode(dst[:0], id[:]))
}

// ParseTraceID parses the 32-hex-character form produced by String. Strict:
// exact length, lowercase hex only, and the zero ID is rejected.
func ParseTraceID(s string) (TraceID, bool) {
	var id TraceID
	if !parseLowerHex(id[:], s) || id.IsZero() {
		return TraceID{}, false
	}
	return id, true
}

// ParseSpanID parses the 16-hex-character form produced by String. Strict
// like ParseTraceID.
func ParseSpanID(s string) (SpanID, bool) {
	var id SpanID
	if !parseLowerHex(id[:], s) || id.IsZero() {
		return SpanID{}, false
	}
	return id, true
}

// parseLowerHex decodes exactly len(dst)*2 lowercase hex characters into dst.
func parseLowerHex(dst []byte, s string) bool {
	if len(s) != 2*len(dst) {
		return false
	}
	for i := range dst {
		hi, ok1 := hexNibble(s[2*i])
		lo, ok2 := hexNibble(s[2*i+1])
		if !ok1 || !ok2 {
			return false
		}
		dst[i] = hi<<4 | lo
	}
	return true
}

func hexNibble(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	}
	return 0, false
}

// NewTraceID returns a fresh random trace ID. Uses the math/rand/v2 global
// source: trace IDs need uniqueness, not unpredictability, and the cheap
// generator keeps per-solve trace setup allocation-free.
func NewTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		hi, lo := mrand.Uint64(), mrand.Uint64()
		for i := 0; i < 8; i++ {
			id[i] = byte(hi >> (8 * i))
			id[8+i] = byte(lo >> (8 * i))
		}
	}
	return id
}

// NewSpanID returns a fresh random span ID.
func NewSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		v := mrand.Uint64()
		for i := 0; i < 8; i++ {
			id[i] = byte(v >> (8 * i))
		}
	}
	return id
}

// Attr is one key/value annotation on a span — a phase's size parameter
// (points, intervals, probes) rather than free-form logging.
type Attr struct {
	Key   string
	Value any
}

// Span is one timed operation inside a trace. Fields are written by the
// tracing machinery and read after the span has ended; use the Trace
// accessors (Tree, PhaseTotals, WriteText) for concurrency-safe views.
type Span struct {
	// Name identifies the phase, e.g. "prime-extract" or "temps-dp".
	Name string
	// Start is the span's wall-clock start (monotonic-backed).
	Start time.Time
	// Duration is set by End; zero while the span is still open.
	Duration time.Duration
	// Attrs are the span's annotations in insertion order.
	Attrs []Attr
	// ID identifies the span within its trace, for cross-node parenting and
	// event correlation.
	ID SpanID

	tr       *Trace
	children []*Span
	// grafts are remote subtrees attached under this span by Graft — the
	// owner-side span tree a cluster forward brought back. They render as
	// extra children, time-shifted to this span's start.
	grafts []*SpanNode

	// attrBuf and childBuf back the first few Attrs/children without a heap
	// allocation; solver phase spans rarely exceed either.
	attrBuf  [2]Attr
	childBuf [4]*Span
}

// SpanEvent is a live notification that a span started or ended, delivered
// to a Trace's OnSpan hook while the traced operation is still running. It is
// the bridge between phase tracing and streaming progress surfaces (the jobs
// subsystem turns these into Server-Sent Events).
type SpanEvent struct {
	// Name is the span's phase name.
	Name string
	// Start is the span's wall-clock start.
	Start time.Time
	// Duration is the span's wall time; zero in start notifications.
	Duration time.Duration
	// End is false when the span just started, true when it ended.
	End bool
	// Root marks events of the trace's root span (only its end is ever
	// delivered — the root starts before any hook can be installed).
	Root bool
	// TraceID and SpanID identify the span, so streamed events correlate
	// with stored traces.
	TraceID TraceID
	SpanID  SpanID
}

// Trace is one request's span tree. Construct with New, attach to a context
// with NewContext, and close with Finish once the traced operation is done.
// All mutation goes through one per-trace mutex, so concurrent solves (a
// batch) may safely grow disjoint subtrees of a shared trace.
type Trace struct {
	// RequestID tags the trace with the originating request's correlation
	// ID; empty when the caller has none.
	RequestID string

	// ID is the trace's 128-bit identity, assigned by New. Overwrite it
	// (before the trace's context is used) with the propagated ID when the
	// request arrived from another node, so both nodes' records share it.
	ID TraceID
	// Parent is the remote parent span under which this trace's root nests
	// on the calling node; zero for locally originated traces.
	Parent SpanID

	// OnSpan, when non-nil, receives a SpanEvent as each span starts and
	// ends — the live subscription hook progress streams attach to. Set it
	// after New and before the trace's context is used; it is read without
	// synchronization afterwards, from whichever goroutines open spans, so
	// the hook itself must be safe for concurrent calls. The hook runs
	// outside the trace mutex and must not call back into the trace.
	OnSpan func(SpanEvent)

	mu   sync.Mutex
	root *Span

	// arena backs the first spans of the trace, so a whole typical trace —
	// root included — costs the one Trace allocation. Entries are handed out
	// by address, which is safe precisely because the array is part of the
	// Trace and never moves. Overflow spans allocate individually.
	arena [arenaSpans]Span
	used  int
}

// arenaSpans sizes the per-trace span arena; a typical solve opens well
// under this many phase spans.
const arenaSpans = 16

// New starts a trace whose root span begins now.
func New(name string) *Trace {
	t := new(Trace)
	t.used = 1
	t.root = &t.arena[0]
	t.root.Name, t.root.Start, t.root.tr = name, time.Now(), t
	t.ID = NewTraceID()
	t.root.ID = NewSpanID()
	return t
}

// newSpan carves a span from the arena, or allocates on overflow. Callers
// hold t.mu.
func (t *Trace) newSpan() *Span {
	if t.used < len(t.arena) {
		sp := &t.arena[t.used]
		t.used++
		return sp
	}
	return new(Span)
}

// Root returns the trace's root span.
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Finish ends the root span. Call it once the traced operation is complete,
// before rendering the trace.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.root.End()
}

type spanKey struct{}
type requestIDKey struct{}

// NewContext returns ctx carrying t, with t's root as the current span.
// Spans started from the returned context (and its descendants) nest under
// the root. Only the current span is stored — the trace rides along inside
// it — so attaching a trace costs a single context link.
func NewContext(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, t.root)
}

// FromContext returns the trace carried by ctx, or nil.
func FromContext(ctx context.Context) *Trace {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	if sp == nil {
		return nil
	}
	return sp.tr
}

// StartSpan opens a child span under the context's current span and returns
// a derived context in which the new span is current. When ctx carries no
// trace it returns ctx unchanged and a nil span — the zero-cost disabled
// path. Callers that want sibling phases rather than nesting discard the
// returned context:
//
//	_, sp := obs.StartSpan(ctx, "edge-sort")
//	... phase work ...
//	sp.End()
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent, _ := ctx.Value(spanKey{}).(*Span)
	if parent == nil {
		return ctx, nil
	}
	sp := parent.child(name)
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// Phase opens a sibling phase span under the context's current span without
// deriving a new context — the allocation-free twin of the
// discard-the-context StartSpan idiom:
//
//	sp := obs.Phase(ctx, "edge-sort")
//	... phase work ...
//	sp.End()
//
// Use it when no further spans will nest under the phase. Nil-safe like
// StartSpan: without a trace it returns nil.
func Phase(ctx context.Context, name string) *Span {
	parent, _ := ctx.Value(spanKey{}).(*Span)
	if parent == nil {
		return nil
	}
	return parent.child(name)
}

// child appends a started span under s.
func (s *Span) child(name string) *Span {
	now := time.Now()
	tr := s.tr
	tr.mu.Lock()
	sp := tr.newSpan()
	sp.Name, sp.Start, sp.tr = name, now, tr
	sp.ID = NewSpanID()
	if s.children == nil {
		s.children = s.childBuf[:0]
	}
	s.children = append(s.children, sp)
	tr.mu.Unlock()
	if tr.OnSpan != nil {
		tr.OnSpan(SpanEvent{Name: name, Start: now, TraceID: tr.ID, SpanID: sp.ID})
	}
	return sp
}

// End closes the span, recording its duration. Safe on a nil span; a second
// End keeps the first duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.Start)
	tr := s.tr
	tr.mu.Lock()
	first := s.Duration == 0
	if first {
		s.Duration = d
	}
	root := s == tr.root
	tr.mu.Unlock()
	if first && tr.OnSpan != nil {
		tr.OnSpan(SpanEvent{Name: s.Name, Start: s.Start, Duration: d, End: true, Root: root,
			TraceID: tr.ID, SpanID: s.ID})
	}
}

// SetAttr annotates the span. Safe on a nil span.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.Attrs == nil {
		s.Attrs = s.attrBuf[:0]
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
	s.tr.mu.Unlock()
}

// PhaseStat aggregates the spans of one phase name: how often the phase ran
// and its total wall time.
type PhaseStat struct {
	Count int64
	Total time.Duration
}

// PhaseTotals aggregates every span strictly below s by name — the
// per-phase breakdown metrics exporters consume. Nil-safe (returns nil).
func (s *Span) PhaseTotals() map[string]PhaseStat {
	if s == nil {
		return nil
	}
	out := make(map[string]PhaseStat)
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	// Iterative walk with a stack-resident worklist: no closure, no
	// recursion, no allocation for typical span counts.
	var buf [arenaSpans]*Span
	stack := append(buf[:0], s)
	for len(stack) > 0 {
		sp := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range sp.children {
			st := out[c.Name]
			st.Count++
			st.Total += c.Duration
			out[c.Name] = st
			stack = append(stack, c)
		}
	}
	return out
}

// PhaseTotals aggregates every span below the root by name.
func (t *Trace) PhaseTotals() map[string]PhaseStat { return t.Root().PhaseTotals() }

// WithRequestID returns ctx carrying the request correlation ID.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestIDFrom returns the request ID carried by ctx, or "".
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// ridFallback numbers request IDs when the system randomness source fails.
var ridFallback atomic.Uint64

// NewRequestID returns a fresh 16-hex-character correlation ID.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "req-" + strconv.FormatUint(ridFallback.Add(1), 16)
	}
	var dst [16]byte
	return string(hex.AppendEncode(dst[:0], b[:]))
}

// Remote is trace context propagated across a node boundary: the trace to
// continue and the calling node's span to parent under, plus a flags byte
// (bit 0 = the caller retains this trace).
type Remote struct {
	Trace TraceID
	Span  SpanID
	Flags byte
}

// FlagSampled is the Remote.Flags bit saying the caller keeps this trace.
const FlagSampled byte = 1

type remoteKey struct{}

// ContextWithRemote returns ctx carrying propagated remote trace context.
func ContextWithRemote(ctx context.Context, rem Remote) context.Context {
	return context.WithValue(ctx, remoteKey{}, rem)
}

// RemoteFromContext returns the remote trace context carried by ctx, if any.
func RemoteFromContext(ctx context.Context) (Remote, bool) {
	rem, ok := ctx.Value(remoteKey{}).(Remote)
	return rem, ok
}

// FormatTraceHeader renders rem as the X-Partition-Trace wire form,
// traceparent-style: 32 hex trace-ID, 16 hex span-ID, 2 hex flags, dash
// separated (e.g. "4bf9…2c1a-00f067aa0ba902b7-01").
func FormatTraceHeader(rem Remote) string {
	var dst [51]byte
	b := hex.AppendEncode(dst[:0], rem.Trace[:])
	b = append(b, '-')
	b = hex.AppendEncode(b, rem.Span[:])
	b = append(b, '-')
	b = hex.AppendEncode(b, []byte{rem.Flags})
	return string(b)
}

// ParseTraceHeader parses the X-Partition-Trace wire form. Strict by design —
// exact field lengths, lowercase hex, non-zero IDs — so a malformed or
// hostile header degrades to "no propagation" rather than poisoning stored
// trace identities.
func ParseTraceHeader(s string) (Remote, bool) {
	// len = 32 + 1 + 16 + 1 + 2.
	if len(s) != 52 || s[32] != '-' || s[49] != '-' {
		return Remote{}, false
	}
	var rem Remote
	tid, ok := ParseTraceID(s[:32])
	if !ok {
		return Remote{}, false
	}
	sid, ok := ParseSpanID(s[33:49])
	if !ok {
		return Remote{}, false
	}
	var fb [1]byte
	if !parseLowerHex(fb[:], s[50:]) {
		return Remote{}, false
	}
	rem.Trace, rem.Span, rem.Flags = tid, sid, fb[0]
	return rem, true
}
