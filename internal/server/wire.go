package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"time"

	"repro/internal/codec"
	"repro/internal/engine"
	"repro/internal/verify"
)

// Binary wire frames for /v1/solve and /v1/batch, negotiated by media type:
// a request with Content-Type application/x-partition-bin is decoded from the
// frames below, and a response is rendered binary when the Accept header
// names the same type (except traced solves, which fall back to JSON — span
// trees have no binary rendering). JSON stays the default in both directions,
// and error responses are always structured JSON.
//
// Frames (integers little-endian, counts/lengths uvarint, strings uvarint
// length + UTF-8 bytes):
//
//	solve request  "PSV1" | flags u8 (1 noCache, 2 verify, 4 trace)
//	               | k f64 | maxComponents | timeoutMs | solver string
//	               | graph (PGB1 frame, see internal/codec)
//	batch request  "PBT1" | timeoutMs | count | count × solve-request frames
//	solve response "PRS1" | flags u8 (1 verify) | solver string | k f64
//	               | fingerprint u64 | cutWeight f64 | bottleneck f64
//	               | durationMs f64 | iterations | cut count | cut indices
//	               | componentWeights count | weights f64…
//	               | [criterion string | certified u8 | objective f64
//	                  | bound f64 | detail string]
//	batch response "PBR1" | requests | solved | failed | cacheHits
//	               | wallMs f64 | count | count × item
//	item           tag u8 (0 error, 1 result, 2 cached result) | body string
//	               (an error message for tag 0, a PRS1 frame otherwise)
//
// The embedded PGB1 graph declares its node and edge counts up front, so the
// node-count limit (Config.MaxNodes) rejects oversized graphs before any
// array is allocated.

// Request flag bits of the PSV1 frame.
const (
	wireFlagNoCache = 1 << iota
	wireFlagVerify
	wireFlagTrace
)

// Response flag bits of the PRS1 frame.
const wireFlagHasVerify = 1

// Batch item tags of the PBR1 frame.
const (
	wireItemError byte = iota
	wireItemResult
	wireItemCached
)

var (
	solveReqMagic  = []byte("PSV1")
	batchReqMagic  = []byte("PBT1")
	solveRespMagic = []byte("PRS1")
	batchRespMagic = []byte("PBR1")
)

// errBadFrame is the client error for malformed binary request framing.
var errBadFrame = errors.New("malformed binary request frame")

// maxWireString bounds decoded string lengths (solver names).
const maxWireString = 256

// isBinaryMedia reports whether a Content-Type names the binary format.
func isBinaryMedia(ct string) bool {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.TrimSpace(ct) == codec.ContentType
}

// acceptsBinary reports whether an Accept header asks for the binary format.
// A plain substring match suffices: the type has no wildcard family, and
// clients that do not want it simply never mention it.
func acceptsBinary(accept string) bool {
	return strings.Contains(accept, codec.ContentType)
}

// wireReader is a bounds-checked cursor over a frame. After any failure err
// is set and every subsequent read returns zero values, so call sites check
// err once at the end of a frame.
type wireReader struct {
	b   []byte
	err error
	// canonical rejects uvarints with redundant trailing zero groups, so
	// that each value has one encoding. Response decoders set it: a frame
	// they accept re-encodes to the same bytes.
	canonical bool
}

func (r *wireReader) fail() {
	if r.err == nil {
		r.err = errBadFrame
	}
}

func (r *wireReader) magic(want []byte) {
	if r.err != nil {
		return
	}
	if len(r.b) < len(want) || string(r.b[:len(want)]) != string(want) {
		r.fail()
		return
	}
	r.b = r.b[len(want):]
}

func (r *wireReader) u8() byte {
	if r.err != nil || len(r.b) < 1 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 || r.canonical && n > 1 && r.b[n-1] == 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *wireReader) f64() float64 {
	if r.err != nil || len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

func (r *wireReader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > maxWireString || uint64(len(r.b)) < n {
		r.fail()
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// internedStr reads a string like str, but when its bytes equal one of the
// candidate strings it returns that string instead of copying — the solver
// name of every well-formed request matches the registry, so the hot path
// never allocates for it. The byte-slice-to-string comparison below compiles
// to an allocation-free compare.
func (r *wireReader) internedStr(candidates []string) string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > maxWireString || uint64(len(r.b)) < n {
		r.fail()
		return ""
	}
	raw := r.b[:n]
	r.b = r.b[n:]
	for _, c := range candidates {
		if string(raw) == c {
			return c
		}
	}
	return string(raw)
}

// appendString appends a uvarint-length-prefixed string.
func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// stringLen is the number of bytes appendString writes for s.
func stringLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

// uvarintLen is the number of bytes binary.AppendUvarint writes for x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// AppendSolveRequest encodes a PSV1 solve-request frame for the given
// parameters and graph, growing dst at most once. Exported for clients
// (cmd/partition, benchmarks, load generators); the server encodes these
// only to forward a solve to its owner.
func AppendSolveRequest(dst []byte, req SolveParams, g any) ([]byte, error) {
	dst = slices.Grow(dst, len(solveReqMagic)+1+8+3*binary.MaxVarintLen64+len(req.Solver)+codec.EncodedSize(g))
	dst = append(dst, solveReqMagic...)
	var flags byte
	if req.NoCache {
		flags |= wireFlagNoCache
	}
	if req.Verify {
		flags |= wireFlagVerify
	}
	if req.Trace {
		flags |= wireFlagTrace
	}
	dst = append(dst, flags)
	dst = appendF64(dst, req.K)
	dst = binary.AppendUvarint(dst, uint64(req.MaxComponents))
	dst = binary.AppendUvarint(dst, uint64(req.TimeoutMs))
	dst = appendString(dst, req.Solver)
	return codec.Append(dst, g)
}

// SolveParams are the non-graph fields of a solve request: what a PSV1
// frame encodes ahead of its graph, and what both request decoders fill
// (the JSON body's fields bar "graph").
type SolveParams struct {
	Solver        string
	K             float64
	MaxComponents int
	TimeoutMs     int64
	NoCache       bool
	Verify        bool
	Trace         bool
}

// AppendBatchRequest encodes a PBT1 batch-request frame from per-item
// parameters and graphs (parallel slices).
func AppendBatchRequest(dst []byte, timeoutMs int64, items []SolveParams, graphs []any) ([]byte, error) {
	if len(items) != len(graphs) {
		return nil, fmt.Errorf("server: %d items but %d graphs", len(items), len(graphs))
	}
	dst = append(dst, batchReqMagic...)
	dst = binary.AppendUvarint(dst, uint64(timeoutMs))
	dst = binary.AppendUvarint(dst, uint64(len(items)))
	for i := range items {
		var err error
		dst, err = AppendSolveRequest(dst, items[i], graphs[i])
		if err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// parseBinarySolve decodes one PSV1 frame from the front of b into a parsed
// solve, returning the remaining bytes. The graph owns its arrays, so the
// solve may outlive the request (a job, or a flight other callers joined).
// Size-limit violations surface as codec.ErrTooLarge.
//
// On error, the returned rest distinguishes two cases: rest shorter than b
// means the frame itself was structurally sound and decoding can continue at
// the next frame (a per-item error in a batch); rest == b means the framing
// is broken and the item boundary is lost.
func (s *Server) parseBinarySolve(b []byte) (parsedSolve, []byte, error) {
	rd := wireReader{b: b}
	rd.magic(solveReqMagic)
	flags := rd.u8()
	k := rd.f64()
	maxComp := rd.uvarint()
	timeoutMs := rd.uvarint()
	solver := rd.internedStr(s.solverNames)
	if rd.err != nil {
		return parsedSolve{}, b, rd.err
	}
	if maxComp > math.MaxInt32 || timeoutMs > math.MaxInt32 {
		return parsedSolve{}, b, errBadFrame
	}
	g, fp, rest, err := codec.Decode(rd.b, codec.Options{MaxNodes: s.cfg.MaxNodes, Store: s.graphStore()})
	if err != nil {
		return parsedSolve{}, b, fmt.Errorf("bad graph: %w", err)
	}
	p, err := checkItem(SolveParams{
		Solver:        solver,
		K:             k,
		MaxComponents: int(maxComp),
		TimeoutMs:     int64(timeoutMs),
		NoCache:       flags&wireFlagNoCache != 0,
		Verify:        flags&wireFlagVerify != 0,
		Trace:         flags&wireFlagTrace != 0,
	}, g, fp, nil)
	return p, rest, err
}

// parseBinaryBatch decodes a PBT1 frame into per-item parsed solves. The
// returned slices are parallel: errMsgs[i] non-empty means item i failed to
// parse (and parsed[i] is zero). A framing-level failure — broken magic,
// corrupt graph frame, trailing bytes — aborts the whole batch with an
// error.
func (s *Server) parseBinaryBatch(b []byte) (parsed []parsedSolve, errMsgs []string, timeoutMs int64, err error) {
	rd := wireReader{b: b}
	rd.magic(batchReqMagic)
	tms := rd.uvarint()
	count := rd.uvarint()
	if rd.err != nil {
		return nil, nil, 0, rd.err
	}
	if tms > math.MaxInt32 {
		return nil, nil, 0, errBadFrame
	}
	if count == 0 {
		return nil, nil, 0, errors.New("batch must contain at least one request")
	}
	if count > maxBatchRequests {
		return nil, nil, 0, fmt.Errorf("batch of %d exceeds the %d-request limit", count, maxBatchRequests)
	}
	parsed = make([]parsedSolve, count)
	errMsgs = make([]string, count)
	rest := rd.b
	for i := range parsed {
		p, next, perr := s.parseBinarySolve(rest)
		if perr != nil {
			if len(next) == len(rest) {
				return nil, nil, 0, fmt.Errorf("request %d: %w", i, perr)
			}
			errMsgs[i] = perr.Error()
		} else {
			parsed[i] = p
		}
		rest = next
	}
	if len(rest) != 0 {
		return nil, nil, 0, fmt.Errorf("%d trailing bytes after %d request frames", len(rest), count)
	}
	return parsed, errMsgs, int64(tms), nil
}

// appendSolveResult renders the canonical PRS1 frame for one solve result —
// the artifact the cache stores and every response format renders from.
// cert is nil unless the request asked for verification.
func appendSolveResult(dst []byte, fp uint64, res engine.Result, cert *verify.Certificate) []byte {
	return appendSolveFrame(dst, &SolveResult{
		Solver:           res.Solver,
		K:                res.K,
		Fingerprint:      fp,
		CutWeight:        res.CutWeight,
		Bottleneck:       res.Bottleneck,
		DurationMs:       float64(res.Stats.Duration) / float64(time.Millisecond),
		Iterations:       res.Stats.Iterations,
		Cut:              res.Cut,
		ComponentWeights: res.ComponentWeights,
		Verify:           cert,
	})
}

// appendSolveFrame encodes r as a PRS1 frame; DecodeSolveResult is its
// exact inverse. A nil dst gets one allocation of exactly the frame's
// length, varints included: the cache keeps the frame long after the
// request, so no spare capacity may ride along with it.
func appendSolveFrame(dst []byte, r *SolveResult) []byte {
	if dst == nil {
		n := len(solveRespMagic) + 1 + stringLen(r.Solver) + 8*5 +
			uvarintLen(uint64(r.Iterations)) + uvarintLen(uint64(len(r.Cut))) +
			uvarintLen(uint64(len(r.ComponentWeights))) + 8*len(r.ComponentWeights)
		for _, e := range r.Cut {
			n += uvarintLen(uint64(e))
		}
		if v := r.Verify; v != nil {
			n += stringLen(v.Criterion) + 1 + 8*2 + stringLen(v.Detail)
		}
		dst = make([]byte, 0, n)
	}
	dst = append(dst, solveRespMagic...)
	var flags byte
	if r.Verify != nil {
		flags |= wireFlagHasVerify
	}
	dst = append(dst, flags)
	dst = appendString(dst, r.Solver)
	dst = appendF64(dst, r.K)
	dst = binary.LittleEndian.AppendUint64(dst, r.Fingerprint)
	dst = appendF64(dst, r.CutWeight)
	dst = appendF64(dst, r.Bottleneck)
	dst = appendF64(dst, r.DurationMs)
	dst = binary.AppendUvarint(dst, uint64(r.Iterations))
	dst = binary.AppendUvarint(dst, uint64(len(r.Cut)))
	for _, e := range r.Cut {
		dst = binary.AppendUvarint(dst, uint64(e))
	}
	dst = binary.AppendUvarint(dst, uint64(len(r.ComponentWeights)))
	for _, w := range r.ComponentWeights {
		dst = appendF64(dst, w)
	}
	if v := r.Verify; v != nil {
		dst = appendString(dst, v.Criterion)
		var ok byte
		if v.Certified {
			ok = 1
		}
		dst = append(dst, ok)
		dst = appendF64(dst, v.Objective)
		dst = appendF64(dst, v.Bound)
		dst = appendString(dst, v.Detail)
	}
	return dst
}

// SolveResult is the decoded PRS1 frame — the client-side view of a binary
// solve response.
type SolveResult struct {
	Solver           string
	K                float64
	Fingerprint      uint64
	CutWeight        float64
	Bottleneck       float64
	DurationMs       float64
	Iterations       int64
	Cut              []int
	ComponentWeights []float64
	Verify           *verify.Certificate
}

// DecodeSolveResult decodes one PRS1 frame from the front of b, returning
// the remaining bytes. It accepts only the frame appendSolveFrame writes for
// the result, so the accepted bytes are exactly the result's encoding.
func DecodeSolveResult(b []byte) (*SolveResult, []byte, error) {
	rd := wireReader{b: b, canonical: true}
	rd.magic(solveRespMagic)
	flags := rd.u8()
	if flags&^wireFlagHasVerify != 0 {
		rd.fail()
	}
	out := &SolveResult{}
	out.Solver = rd.str()
	out.K = rd.f64()
	if rd.err == nil && len(rd.b) >= 8 {
		out.Fingerprint = binary.LittleEndian.Uint64(rd.b)
		rd.b = rd.b[8:]
	} else {
		rd.fail()
	}
	out.CutWeight = rd.f64()
	out.Bottleneck = rd.f64()
	out.DurationMs = rd.f64()
	out.Iterations = int64(rd.uvarint())
	nCut := rd.uvarint()
	if rd.err != nil || nCut > uint64(len(rd.b)) {
		rd.fail()
		return nil, b, rd.err
	}
	out.Cut = make([]int, nCut)
	for i := range out.Cut {
		out.Cut[i] = int(rd.uvarint())
	}
	nw := rd.uvarint()
	if rd.err != nil || nw > uint64(len(rd.b))/8 {
		rd.fail()
		return nil, b, rd.err
	}
	out.ComponentWeights = make([]float64, nw)
	for i := range out.ComponentWeights {
		out.ComponentWeights[i] = rd.f64()
	}
	if flags&wireFlagHasVerify != 0 {
		v := &verify.Certificate{}
		v.Criterion = rd.str()
		certified := rd.u8()
		if certified > 1 {
			rd.fail()
		}
		v.Certified = certified == 1
		v.Objective = rd.f64()
		v.Bound = rd.f64()
		v.Detail = rd.str()
		out.Verify = v
	}
	if rd.err != nil {
		return nil, b, rd.err
	}
	return out, rd.b, nil
}

// BatchResult is the decoded PBR1 frame.
type BatchResult struct {
	Requests, Solved, Failed, CacheHits int
	WallMs                              float64
	Items                               []BatchResultItem
}

// BatchResultItem is one batch item: either an error message or a result.
type BatchResultItem struct {
	Result *SolveResult
	Error  string
	Cached bool
}

// DecodeBatchResult decodes a PBR1 frame that fills b. Like
// DecodeSolveResult, it accepts only the canonical encoding.
func DecodeBatchResult(b []byte) (*BatchResult, error) {
	rd := wireReader{b: b, canonical: true}
	rd.magic(batchRespMagic)
	out := &BatchResult{}
	out.Requests = int(rd.uvarint())
	out.Solved = int(rd.uvarint())
	out.Failed = int(rd.uvarint())
	out.CacheHits = int(rd.uvarint())
	out.WallMs = rd.f64()
	n := rd.uvarint()
	if rd.err != nil || n > uint64(len(rd.b)) {
		rd.fail()
		return nil, rd.err
	}
	out.Items = make([]BatchResultItem, 0, n)
	for i := uint64(0); i < n; i++ {
		tag := rd.u8()
		ln := rd.uvarint()
		if rd.err != nil || ln > uint64(len(rd.b)) {
			rd.fail()
			return nil, rd.err
		}
		body := rd.b[:ln]
		rd.b = rd.b[ln:]
		switch tag {
		case wireItemError:
			out.Items = append(out.Items, BatchResultItem{Error: string(body)})
		case wireItemResult, wireItemCached:
			res, rest, err := DecodeSolveResult(body)
			if err != nil {
				return nil, err
			}
			if len(rest) != 0 {
				return nil, errBadFrame
			}
			out.Items = append(out.Items, BatchResultItem{Result: res, Cached: tag == wireItemCached})
		default:
			return nil, errBadFrame
		}
	}
	if len(rd.b) != 0 {
		return nil, errBadFrame
	}
	return out, nil
}

// appendBatchHeader starts a PBR1 frame; count items follow, each written
// by appendBatchItem.
func appendBatchHeader(dst []byte, requests, solved, failed, hits int, wallMs float64, count int) []byte {
	dst = append(dst, batchRespMagic...)
	for _, v := range []int{requests, solved, failed, hits} {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	dst = appendF64(dst, wallMs)
	return binary.AppendUvarint(dst, uint64(count))
}

// appendBatchItem appends one PBR1 item: its tag and its body (an error
// message or a PRS1 frame).
func appendBatchItem(dst []byte, tag byte, body []byte) []byte {
	dst = append(dst, tag)
	dst = binary.AppendUvarint(dst, uint64(len(body)))
	return append(dst, body...)
}
