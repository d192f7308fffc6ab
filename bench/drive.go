package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/codec"
	"repro/internal/server"
)

// The closed loop: one caller sending its next op only when the previous one
// has completed — the way every partitiond caller (partition -server, batch
// and job clients) waits for its reply — over one keep-alive connection per
// daemon. One op in flight keeps the load within a host of a few cores: with
// two, the daemons' threads and the callers' contended for them, and the
// latency tail measured the scheduler.

// opTimeout bounds one HTTP exchange, so a hung daemon fails the op instead
// of the run.
const opTimeout = 60 * time.Second

// outcome is what one op did.
type outcome struct {
	sent bool
	lat  time.Duration
	err  string // empty when the op succeeded and every answer checked out

	status             int  // HTTP status of a failed exchange
	hit, forwarded     bool // /v1/solve response headers
	items, cachedItems int  // /v1/batch item tags

	jobSubmit, jobWait, jobFetch time.Duration

	answers []*answer // per item, kept for sampled ops only
}

func (o *outcome) ok() bool { return o.sent && o.err == "" }

// client is the closed loop's connection to one daemon.
type client struct {
	id    int
	base  string
	hc    *http.Client
	w     *workload
	trace *tracer // nil unless tracing the measured phase

	// verified maps a reused request (item key + response format) to a
	// response body already decoded and checked: a byte-identical repeat is
	// checked by comparison, keeping client CPU off the daemon's cores.
	verified map[string][]byte
	reqBuf   []byte
	respBuf  bytes.Buffer
}

func newClient(id int, addr string, w *workload) *client {
	return &client{
		id:   id,
		base: "http://" + addr,
		hc: &http.Client{Timeout: opTimeout, Transport: &http.Transport{
			Proxy:               nil,
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		w:        w,
		verified: map[string][]byte{},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// drive runs ops in order, closed-loop, each through the client of the
// daemon it names, and returns one outcome per op. keep marks the ops whose
// answers are retained for the post-run check (nil keeps none). Ops not
// started by the deadline fail unsent.
func drive(ctx context.Context, ops []op, clients []*client, keep []bool, deadline time.Time) []outcome {
	outs := make([]outcome, len(ops))
	for i := range ops {
		if ctx.Err() != nil || time.Now().After(deadline) {
			outs[i].err = "not sent: run deadline or interrupt"
			continue
		}
		c := clients[ops[i].node]
		start := time.Now()
		sp := c.trace.begin("op."+ops[i].route.String(), ops[i].id, -1, c.id, routeAttr(&ops[i]))
		outs[i] = c.do(ctx, &ops[i], keep != nil && keep[i], sp)
		c.trace.end(sp)
		outs[i].sent = true
		outs[i].lat = time.Since(start)
	}
	return outs
}

func routeAttr(o *op) string {
	if o.route == routeSolve {
		if o.json {
			return "json"
		}
		return "bin"
	}
	return ""
}

// do performs one op and checks its answers. sp is the op's span (for job
// phase children).
func (c *client) do(ctx context.Context, o *op, keep bool, sp int) outcome {
	var out outcome
	var err error
	switch o.route {
	case routeSolve:
		err = c.solve(ctx, o, keep, &out)
	case routeBatch:
		err = c.batch(ctx, o, keep, &out)
	case routeJob:
		err = c.job(ctx, o, keep, &out, sp)
	}
	if err != nil {
		out.err = err.Error()
	}
	return out
}

// statusError is a non-success HTTP answer.
type statusError struct {
	status int
	body   string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("status %d: %s", e.status, strings.TrimSpace(e.body))
}

// exchange sends one request and reads the whole response into the client's
// buffer; the returned body is valid until the next exchange.
func (c *client) exchange(ctx context.Context, method, path, contentType, accept string, body []byte, want int) (http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	c.respBuf.Reset()
	if _, err := c.respBuf.ReadFrom(resp.Body); err != nil {
		return nil, nil, fmt.Errorf("%s %s: reading response: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return nil, nil, &statusError{status: resp.StatusCode, body: c.respBuf.String()}
	}
	return resp.Header, c.respBuf.Bytes(), nil
}

func noteStatus(out *outcome, err error) error {
	var se *statusError
	if errors.As(err, &se) {
		out.status = se.status
	}
	return err
}

// jsonSolveBody renders a JSON solve request for it.
func jsonSolveBody(dst []byte, it *item) []byte {
	dst = append(dst, `{"solver":"`...)
	dst = append(dst, it.solver...)
	dst = append(dst, `","k":`...)
	dst = strconv.AppendFloat(dst, it.k, 'g', -1, 64) // exact: shortest round-trip form
	if it.verify {
		dst = append(dst, `,"verify":true`...)
	}
	dst = append(dst, `,"graph":`...)
	dst = append(dst, it.in.json()...)
	return append(dst, '}')
}

func solveParams(it *item) server.SolveParams {
	return server.SolveParams{Solver: it.solver, K: it.k, Verify: it.verify}
}

// solveRequest renders a solve request in the op's encoding and returns it
// with its Content-Type.
func (c *client) solveRequest(o *op, it *item) ([]byte, string, error) {
	if o.json {
		c.reqBuf = jsonSolveBody(c.reqBuf[:0], it)
		return c.reqBuf, "application/json", nil
	}
	var err error
	c.reqBuf, err = server.AppendSolveRequest(c.reqBuf[:0], solveParams(it), it.in.graph())
	return c.reqBuf, codec.ContentType, err
}

func (c *client) solve(ctx context.Context, o *op, keep bool, out *outcome) error {
	it := &o.items[0]
	body, ct, err := c.solveRequest(o, it)
	if err != nil {
		return err
	}
	accept := ""
	if !o.json {
		accept = codec.ContentType
	}
	h, resp, err := c.exchange(ctx, http.MethodPost, "/v1/solve", ct, accept, body, http.StatusOK)
	if err != nil {
		return noteStatus(out, fmt.Errorf("solve: %w", err))
	}
	out.hit = h.Get("X-Cache") == "HIT"
	out.forwarded = strings.HasPrefix(h.Get("X-Cluster"), "forwarded")
	a, err := c.checkBody(it, resp, !o.json, keep)
	if err != nil {
		return fmt.Errorf("solve: %w", err)
	}
	if keep {
		out.answers = []*answer{a}
	}
	return nil
}

// checkBody decodes and checks one solve response body. A byte-identical
// repeat of a body already checked for the same reused request passes by
// comparison unless its decoded answer must be kept.
func (c *client) checkBody(it *item, body []byte, bin, keep bool) (*answer, error) {
	vkey := ""
	if c.w.reused[it.key()] {
		vkey = fmt.Sprintf("%s|%t", it.key(), bin)
		if prev, ok := c.verified[vkey]; ok && !keep && bytes.Equal(prev, body) {
			return nil, nil
		}
	}
	var a *answer
	var err error
	if bin {
		a, err = decodeFrame(body)
	} else {
		a, err = decodeJSONAnswer(body)
	}
	if err != nil {
		return nil, err
	}
	if err := checkAnswer(it, a); err != nil {
		return nil, err
	}
	if vkey != "" {
		c.verified[vkey] = bytes.Clone(body)
	}
	return a, nil
}

func (c *client) batch(ctx context.Context, o *op, keep bool, out *outcome) error {
	params := make([]server.SolveParams, len(o.items))
	graphs := make([]any, len(o.items))
	for i := range o.items {
		params[i] = solveParams(&o.items[i])
		graphs[i] = o.items[i].in.graph()
	}
	var err error
	c.reqBuf, err = server.AppendBatchRequest(c.reqBuf[:0], 0, params, graphs)
	if err != nil {
		return err
	}
	_, resp, err := c.exchange(ctx, http.MethodPost, "/v1/batch", codec.ContentType, codec.ContentType, c.reqBuf, http.StatusOK)
	if err != nil {
		return noteStatus(out, fmt.Errorf("batch: %w", err))
	}
	br, err := server.DecodeBatchResult(resp)
	if err != nil {
		return fmt.Errorf("batch: %w", err)
	}
	if len(br.Items) != len(o.items) {
		return fmt.Errorf("batch: %d items answered for %d sent", len(br.Items), len(o.items))
	}
	for i, bi := range br.Items {
		if bi.Error != "" {
			return fmt.Errorf("batch item %d: %s", i, bi.Error)
		}
		a := answerOf(bi.Result)
		if err := checkAnswer(&o.items[i], a); err != nil {
			return fmt.Errorf("batch item %d: %w", i, err)
		}
		out.items++
		if bi.Cached {
			out.cachedItems++
		}
		if keep {
			out.answers = append(out.answers, a)
		}
	}
	return nil
}

// job submits a binary solve job, follows its SSE stream to the terminal
// state, and fetches the result.
func (c *client) job(ctx context.Context, o *op, keep bool, out *outcome, sp int) error {
	it := &o.items[0]
	var err error
	c.reqBuf, err = server.AppendSolveRequest(c.reqBuf[:0], solveParams(it), it.in.graph())
	if err != nil {
		return err
	}

	t := time.Now()
	s := c.trace.begin("jobs.submit", o.id, sp, c.id, "")
	_, resp, err := c.exchange(ctx, http.MethodPost, "/v1/jobs", codec.ContentType, "", c.reqBuf, http.StatusAccepted)
	c.trace.end(s)
	out.jobSubmit = time.Since(t)
	if err != nil {
		return noteStatus(out, fmt.Errorf("job submit: %w", err))
	}
	var sub struct {
		ID        string `json:"id"`
		EventsURL string `json:"eventsUrl"`
	}
	if err := json.Unmarshal(resp, &sub); err != nil || sub.ID == "" || sub.EventsURL == "" {
		return fmt.Errorf("job submit: bad response %q (%v)", resp, err)
	}

	t = time.Now()
	s = c.trace.begin("jobs.wait", o.id, sp, c.id, "")
	state, err := c.followEvents(ctx, sub.EventsURL)
	c.trace.end(s)
	out.jobWait = time.Since(t)
	if err != nil {
		return fmt.Errorf("job %s events: %w", sub.ID, err)
	}
	if state != "succeeded" {
		return fmt.Errorf("job %s ended %s", sub.ID, state)
	}

	t = time.Now()
	s = c.trace.begin("jobs.fetch", o.id, sp, c.id, "")
	_, resp, err = c.exchange(ctx, http.MethodGet, "/v1/jobs/"+sub.ID, "", "", nil, http.StatusOK)
	c.trace.end(s)
	out.jobFetch = time.Since(t)
	if err != nil {
		return noteStatus(out, fmt.Errorf("job %s fetch: %w", sub.ID, err))
	}
	var st struct {
		State  string          `json:"state"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(resp, &st); err != nil {
		return fmt.Errorf("job %s fetch: %w", sub.ID, err)
	}
	if st.State != "succeeded" || len(st.Result) == 0 {
		return fmt.Errorf("job %s fetch: state %s without result", sub.ID, st.State)
	}
	a, err := decodeJSONAnswer(st.Result)
	if err != nil {
		return fmt.Errorf("job %s result: %w", sub.ID, err)
	}
	if err := checkAnswer(it, a); err != nil {
		return fmt.Errorf("job %s result: %w", sub.ID, err)
	}
	if keep {
		out.answers = []*answer{a}
	}
	return nil
}

// followEvents reads a job's Server-Sent Events until its terminal state
// event and returns that state.
func (c *client) followEvents(ctx context.Context, path string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return "", &statusError{status: resp.StatusCode, body: string(body)}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	event, state := "", ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			event = ""
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case event == "state" && strings.HasPrefix(line, "data: "):
			var p struct {
				State string `json:"state"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &p); err != nil {
				return "", fmt.Errorf("bad state event %q: %w", line, err)
			}
			switch p.State {
			case "succeeded", "failed", "canceled":
				state = p.State
			}
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	if state == "" {
		return "", errors.New("stream ended before a terminal state")
	}
	return state, nil
}
