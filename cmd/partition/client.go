package main

// The partitiond jobs client: with -server, partition stops solving locally
// and drives a daemon's async jobs API instead — submit the solve as a
// durable job (PSV1 binary on the wire), follow its Server-Sent Events
// stream, and print the result when the job lands. Solves too long for the
// daemon's synchronous deadline run to completion this way. The wire types
// are the daemon's own: server.JobSubmitResponse, server.JobStatusResponse,
// server.SolveResponse, and jobs.ReadEvent for the event stream.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/codec"
	"repro/internal/jobs"
	"repro/internal/server"
)

// remote submits g as a job, or attaches to -job, and with -wait (always,
// when attaching) follows the job to a terminal state and reports it.
func (o *options) remote(g any, stdout, stderr io.Writer) error {
	base, err := url.Parse(strings.TrimRight(o.server, "/"))
	if err != nil || base.Scheme == "" || base.Host == "" {
		return fmt.Errorf("-server needs an absolute URL like http://localhost:8080 (got %q)", o.server)
	}
	id := o.job
	if id == "" {
		sub, err := o.submitJob(base.String(), g)
		if err != nil {
			return err
		}
		id = sub.ID
		fmt.Fprintf(stdout, "job:              %s\nstate:            %s\nevents:           %s%s\n",
			id, sub.State, base, sub.EventsURL)
		if !o.wait {
			return nil
		}
	}
	if err := followJob(base.String(), id, stderr); err != nil {
		return err
	}
	return reportJob(base.String(), id, stdout)
}

// submitJob posts the solve as a PSV1 frame to /v1/jobs.
func (o *options) submitJob(base string, g any) (*server.JobSubmitResponse, error) {
	timeoutMs := o.timeout.Milliseconds()
	if o.timeout > 0 {
		// The daemon reads 0 as "no timeout given"; keep a sub-millisecond
		// bound a bound.
		timeoutMs = max(timeoutMs, 1)
	}
	frame, err := server.AppendSolveRequest(nil, server.SolveParams{
		Solver:        o.algo,
		K:             o.k,
		MaxComponents: o.maxProcs,
		TimeoutMs:     timeoutMs,
		Verify:        o.verify,
	}, g)
	if err != nil {
		return nil, err
	}
	u := base + "/v1/jobs"
	if o.priority != 0 {
		u += "?priority=" + strconv.Itoa(o.priority)
	}
	resp, err := http.Post(u, codec.ContentType, bytes.NewReader(frame))
	var sub server.JobSubmitResponse
	if err := decodeReply(resp, err, http.StatusAccepted, &sub); err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	if sub.ID == "" {
		return nil, errors.New("submit: response carries no job ID")
	}
	return &sub, nil
}

// followJob streams the job's SSE events, narrating progress on stderr, and
// returns once a terminal state event arrives. A dropped connection resumes
// from the last seen event ID, so no progress frames are lost or repeated.
// A 4xx answer — the job is unknown, never submitted or already swept —
// ends the attach at once.
func followJob(base, id string, stderr io.Writer) error {
	var last uint64
	for attempt := 0; ; attempt++ {
		terminal, err := streamEvents(base, id, &last, stderr)
		if terminal {
			return nil
		}
		if attempt >= 5 || isClientError(err) {
			return fmt.Errorf("event stream: %w", err)
		}
		// The daemon may be between us and the terminal event (stream cut by
		// a proxy, a keepalive gap); back off briefly and resume.
		time.Sleep(time.Duration(attempt+1) * 200 * time.Millisecond)
		if st, err := fetchJob(base, id); err == nil && st.State.Terminal() || isClientError(err) {
			return err
		}
	}
}

// streamEvents runs one SSE connection, updating *last as frames arrive. It
// returns terminal=true once a terminal state event is seen.
func streamEvents(base, id string, last *uint64, stderr io.Writer) (bool, error) {
	req, err := http.NewRequest("GET", base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return false, err
	}
	if *last != 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(*last, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err := checkStatus(resp, err, http.StatusOK); err != nil {
		return false, err
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	for {
		ev, err := jobs.ReadEvent(br)
		if err == io.EOF {
			return false, errors.New("stream ended before a terminal state")
		}
		if err != nil {
			return false, err
		}
		*last = ev.Seq
		if printEvent(stderr, ev) {
			return true, nil
		}
	}
}

// printEvent narrates one SSE event on stderr and reports whether it was a
// terminal state transition.
func printEvent(w io.Writer, ev jobs.Event) bool {
	switch ev.Type {
	case "state":
		var p jobs.StatePayload
		if json.Unmarshal(ev.Data, &p) != nil {
			return false
		}
		if p.Error != "" {
			fmt.Fprintf(w, "state: %s (%s)\n", p.State, p.Error)
		} else {
			fmt.Fprintf(w, "state: %s\n", p.State)
		}
		return p.State.Terminal()
	case "phase":
		var p jobs.PhasePayload
		if json.Unmarshal(ev.Data, &p) != nil {
			return false
		}
		if p.End {
			fmt.Fprintf(w, "phase: %s done (%.3gms)\n", p.Phase, p.DurationMS)
		} else {
			fmt.Fprintf(w, "phase: %s\n", p.Phase)
		}
	}
	return false
}

// fetchJob GETs the job status envelope.
func fetchJob(base, id string) (*server.JobStatusResponse, error) {
	resp, err := http.Get(base + "/v1/jobs/" + id)
	var st server.JobStatusResponse
	if err := decodeReply(resp, err, http.StatusOK, &st); err != nil {
		return nil, fmt.Errorf("job status: %w", err)
	}
	return &st, nil
}

// reportJob prints the terminal job's outcome. Failed and canceled jobs
// return an error so scripts get a non-zero exit.
func reportJob(base, id string, w io.Writer) error {
	st, err := fetchJob(base, id)
	if err != nil {
		return err
	}
	switch st.State {
	case jobs.StateFailed:
		return fmt.Errorf("job %s failed: %s", id, st.Error)
	case jobs.StateCanceled:
		return fmt.Errorf("job %s was canceled", id)
	case jobs.StateSucceeded:
	default:
		return fmt.Errorf("job %s is %s, not terminal", id, st.State)
	}
	var res server.SolveResponse
	if err := json.Unmarshal(st.Result, &res); err != nil {
		return fmt.Errorf("job result: %w", err)
	}
	printCut(w, res.Solver, res.Cut, res.CutWeight, res.Bottleneck, res.ComponentWeights)
	if v := res.Verify; v != nil {
		printVerdict(w, v.Certified, v.Criterion)
	}
	if st.Cached {
		fmt.Fprintf(w, "cache:            HIT\n")
	}
	fmt.Fprintf(w, "solve time:       %gms\niterations:       %d\nfingerprint:      %s\n",
		res.Stats.DurationMs, res.Stats.Iterations, res.Fingerprint)
	if v := res.Verify; v != nil && !v.Certified {
		return fmt.Errorf("result failed the %s certificate", v.Criterion)
	}
	return nil
}

// statusError is an HTTP answer with an unexpected status, carrying the
// daemon's message.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return e.msg }

// isClientError reports whether err is a 4xx answer, which retrying cannot
// change.
func isClientError(err error) bool {
	var se *statusError
	return errors.As(err, &se) && se.code < 500
}

// checkStatus passes on a round trip's error, or turns a status other than
// want into a *statusError (closing the body); on nil the caller owns
// resp.Body.
func checkStatus(resp *http.Response, err error, want int) error {
	if err != nil {
		return err
	}
	if resp.StatusCode == want {
		return nil
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	return &statusError{resp.StatusCode, resp.Status + ": " + strings.TrimSpace(string(body))}
}

// decodeReply is checkStatus followed by decoding the JSON body into out.
func decodeReply(resp *http.Response, err error, want int, out any) error {
	if err := checkStatus(resp, err, want); err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("bad response: %w", err)
	}
	return nil
}
