package server

import (
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/jsonscan"
)

// JSON request bodies decode in one pass of internal/jsonscan over the
// pooled request buffer: the envelope fields and the graph arrays go
// straight into their destinations, and the graph is held to
// Config.MaxNodes as its node weights arrive. The result is what
// json.Unmarshal into jobSubmitRequest or batchRequest followed by
// graph.ReadJSON of each graph would give (FuzzDecodeSolveJSON holds the two
// together), except that "graph": null counts as a missing graph. Decoded
// values never alias the buffer: weights are copied into the graph's own
// arrays, and strings are copied or interned.

// jsonItem is one solve request as the decoder leaves it, before
// validation. A graph that failed to decode keeps its error in gerr rather
// than failing the body, because a later "graph" key replaces it, as it
// replaces a json.RawMessage.
type jsonItem struct {
	req      SolveParams
	priority int
	g        any
	fp       uint64
	gerr     error
	hasGraph bool
}

// Field positions in solveFields, which follows jobSubmitRequest.
const (
	fieldSolver = iota
	fieldK
	fieldGraph
	fieldMaxComponents
	fieldTimeoutMs
	fieldNoCache
	fieldVerify
	fieldTrace
	fieldPriority
)

var solveFields = jsonscan.Fields{"solver", "k", "graph", "maxComponents", "timeoutMs", "noCache", "verify", "trace", "priority"}

// Field positions in batchFields, which follows batchRequest.
const (
	fieldRequests = iota
	fieldBatchTimeoutMs
)

var batchFields = jsonscan.Fields{"requests", "timeoutMs"}

// bodyError wraps a decoding error as a bad body, leaving the node-limit
// error (413) as it is.
func bodyError(err error) error {
	if errors.Is(err, errNodeLimit) {
		return err
	}
	return fmt.Errorf("bad request body: %w", err)
}

// parseSolveJSON decodes and validates a JSON /v1/solve or /v1/jobs body,
// returning the job priority alongside. Errors map to a status via
// requestErrStatus.
func (s *Server) parseSolveJSON(b []byte) (parsedSolve, int, error) {
	sc := jsonscan.NewScanner(b)
	var it jsonItem
	if err := s.scanItem(sc, &it, true); err != nil {
		return parsedSolve{}, 0, bodyError(err)
	}
	if err := sc.End(); err != nil {
		return parsedSolve{}, 0, bodyError(err)
	}
	p, err := validateItem(&it)
	return p, it.priority, err
}

// parseBatchJSON decodes a JSON /v1/batch body into its items and default
// timeout.
func (s *Server) parseBatchJSON(b []byte) ([]jsonItem, int64, error) {
	sc := jsonscan.NewScanner(b)
	var (
		items     []jsonItem
		n         int
		timeoutMs int64
	)
	ok, err := sc.Object()
	for ok && err == nil && sc.NextKey() {
		switch batchFields.Index(sc.Key()) {
		case fieldRequests:
			items, n, err = s.scanItems(sc, items)
		case fieldBatchTimeoutMs:
			err = sc.Int64(&timeoutMs)
		default:
			sc.Skip()
		}
	}
	if err == nil {
		err = sc.End()
	}
	if err != nil {
		return nil, 0, bodyError(err)
	}
	return items[:n], timeoutMs, nil
}

// scanItems decodes the "requests" array over the items an earlier
// "requests" key left, as encoding/json decodes a repeated slice field (see
// graph.ScanJSON), and returns them with the array's own length.
func (s *Server) scanItems(sc *jsonscan.Scanner, items []jsonItem) ([]jsonItem, int, error) {
	ok, err := sc.Array()
	if !ok {
		if err == nil {
			items = items[:0]
		}
		return items, 0, err
	}
	n := 0
	for sc.NextElem() {
		if n == len(items) {
			items = append(items, jsonItem{})
		}
		if err := s.scanItem(sc, &items[n], false); err != nil {
			return items, n, err
		}
		n++
	}
	if n == 0 {
		items = items[:0]
	}
	return items, n, sc.Err()
}

// scanItem decodes one solve object over *it. withPriority admits the
// job-only "priority" field; batch items skip it as an unknown key. Errors
// reject the whole body.
func (s *Server) scanItem(sc *jsonscan.Scanner, it *jsonItem, withPriority bool) error {
	ok, err := sc.Object()
	if !ok {
		return err
	}
	for sc.NextKey() {
		var err error
		switch solveFields.Index(sc.Key()) {
		case fieldSolver:
			err = sc.String(&it.req.Solver, s.solverNames...)
		case fieldK:
			err = sc.Float64(&it.req.K)
		case fieldGraph:
			it.g, it.fp, it.gerr = graph.ScanJSON(sc, s.cfg.MaxNodes, s.graphStore())
			if errors.Is(it.gerr, graph.ErrTooManyNodes) {
				return fmt.Errorf("graph has more than %d nodes: %w", s.cfg.MaxNodes, errNodeLimit)
			}
			it.hasGraph = it.g != nil || it.gerr != nil
		case fieldMaxComponents:
			err = sc.Int(&it.req.MaxComponents)
		case fieldTimeoutMs:
			err = sc.Int64(&it.req.TimeoutMs)
		case fieldNoCache:
			err = sc.Bool(&it.req.NoCache)
		case fieldVerify:
			err = sc.Bool(&it.req.Verify)
		case fieldTrace:
			err = sc.Bool(&it.req.Trace)
		case fieldPriority:
			if withPriority {
				err = sc.Int(&it.priority)
			} else {
				sc.Skip()
			}
		default:
			sc.Skip()
		}
		if err != nil {
			return err
		}
	}
	return sc.Err()
}

// validateItem checks a decoded item, whose graph the decoder has already
// fingerprinted. Errors are client errors (400).
func validateItem(it *jsonItem) (parsedSolve, error) {
	var gerr error
	switch {
	case !it.hasGraph:
		gerr = errors.New(`"graph" is required`)
	case it.gerr != nil:
		gerr = fmt.Errorf("bad graph: %v", it.gerr)
	}
	return checkItem(it.req, it.g, it.fp, gerr)
}
