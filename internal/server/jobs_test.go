package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
)

// submitJob posts a job submission to the server at base and decodes the
// 202 response.
func submitJob(t *testing.T, base string, body any) JobSubmitResponse {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, body = %s", resp.StatusCode, raw)
	}
	var out JobSubmitResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("bad submit response: %v (%s)", err, raw)
	}
	if out.ID == "" || out.EventsURL == "" {
		t.Fatalf("submit response incomplete: %+v", out)
	}
	return out
}

// getJob fetches GET /v1/jobs/{id} from the server at base.
func getJob(t *testing.T, base, id string) JobStatusResponse {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get job status = %d, body = %s", resp.StatusCode, raw)
	}
	var out JobStatusResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// waitJobState polls GET /v1/jobs/{id} on the server at base until the
// state matches.
func waitJobState(t *testing.T, base, id string, want jobs.State) JobStatusResponse {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := getJob(t, base, id)
		if st.State == want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s state = %s, want %s", id, st.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// sseFrame is one parsed SSE frame plus its raw bytes.
type sseFrame struct {
	id    string
	event string
	data  string
	raw   string
}

// openSSE connects to a job's event stream; lastEventID "" omits the header.
func openSSE(t *testing.T, ts *httptest.Server, id, lastEventID string) *http.Response {
	t.Helper()
	req, err := http.NewRequest("GET", ts.URL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("events status = %d, body = %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type = %q", ct)
	}
	return resp
}

// readFrames reads SSE frames until stop returns true or the stream ends.
// Keepalive comments are skipped (they never appear inside a frame's raw
// bytes here: tests run far under the keepalive cadence).
func readFrames(t *testing.T, r *bufio.Reader, stop func(sseFrame) bool) []sseFrame {
	t.Helper()
	var frames []sseFrame
	var cur sseFrame
	var raw strings.Builder
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return frames // disconnect or stream end
		}
		if strings.HasPrefix(line, ":") {
			continue // keepalive comment
		}
		raw.WriteString(line)
		switch {
		case line == "\n":
			cur.raw = raw.String()
			frames = append(frames, cur)
			done := stop(cur)
			cur, raw = sseFrame{}, strings.Builder{}
			if done {
				return frames
			}
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimSuffix(strings.TrimPrefix(line, "id: "), "\n")
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimSuffix(strings.TrimPrefix(line, "event: "), "\n")
		case strings.HasPrefix(line, "data: "):
			cur.data += strings.TrimSuffix(strings.TrimPrefix(line, "data: "), "\n")
		}
	}
}

func isTerminalFrame(f sseFrame) bool {
	return f.event == "state" && (strings.Contains(f.data, "succeeded") ||
		strings.Contains(f.data, "failed") || strings.Contains(f.data, "canceled"))
}

// TestJobLifecycle drives submit → SSE stream → result fetch end to end.
func TestJobLifecycle(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	g := pathGraphJSON(t, 64, 3)

	sub := submitJob(t, ts.URL, jobSubmitRequest{solveRequest: solveRequest{Solver: "bandwidth", K: 500, Graph: g}})
	if sub.State != jobs.StateQueued {
		t.Errorf("submit state = %s, want queued", sub.State)
	}

	resp := openSSE(t, ts, sub.ID, "")
	defer resp.Body.Close()
	frames := readFrames(t, bufio.NewReader(resp.Body), isTerminalFrame)
	if len(frames) < 3 {
		t.Fatalf("got %d frames, want >= 3 (queued, running, succeeded): %+v", len(frames), frames)
	}
	last := frames[len(frames)-1]
	if last.data != `{"state":"succeeded"}` {
		t.Fatalf("terminal frame = %+v", last)
	}
	// Phase events from the solver's spans ride the same stream.
	var phases int
	for _, f := range frames {
		if f.event == "phase" {
			phases++
		}
	}
	if phases == 0 {
		t.Error("no phase events in the stream")
	}

	st := getJob(t, ts.URL, sub.ID)
	if st.State != jobs.StateSucceeded || st.Result == nil {
		t.Fatalf("final status = %+v", st)
	}
	var res SolveResponse
	if err := json.Unmarshal(st.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Solver != "bandwidth" || res.K != 500 || res.NumComponents == 0 {
		t.Errorf("job result = %+v", res)
	}
}

// TestJobSSEDisconnectResume is the replay acceptance test: a client that
// drops mid-stream and reconnects with Last-Event-ID receives the remaining
// frames byte-identical to what an uninterrupted stream delivered.
func TestJobSSEDisconnectResume(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	started, release := armGate(t)
	g := pathGraphJSON(t, 32, 4)

	sub := submitJob(t, ts.URL, jobSubmitRequest{solveRequest: solveRequest{Solver: "test-gate", K: 100, Graph: g}})
	<-started

	// Connection A: read two frames (queued, running), then drop.
	respA := openSSE(t, ts, sub.ID, "")
	var n int
	framesA := readFrames(t, bufio.NewReader(respA.Body), func(sseFrame) bool { n++; return n == 2 })
	respA.Body.Close()
	if len(framesA) != 2 || framesA[1].data != `{"state":"running"}` {
		t.Fatalf("frames before disconnect: %+v", framesA)
	}

	release()
	waitJobState(t, ts.URL, sub.ID, jobs.StateSucceeded)

	// Connection B resumes from the dropped cursor; connection C replays the
	// whole stream. B's bytes must equal C's minus the frames B skipped.
	respB := openSSE(t, ts, sub.ID, framesA[1].id)
	framesB := readFrames(t, bufio.NewReader(respB.Body), isTerminalFrame)
	respB.Body.Close()
	respC := openSSE(t, ts, sub.ID, "")
	framesC := readFrames(t, bufio.NewReader(respC.Body), isTerminalFrame)
	respC.Body.Close()

	if len(framesC) != len(framesA)+len(framesB) {
		t.Fatalf("frame counts: A=%d B=%d C=%d", len(framesA), len(framesB), len(framesC))
	}
	var gotB, wantB bytes.Buffer
	for _, f := range framesB {
		gotB.WriteString(f.raw)
	}
	for _, f := range framesC[len(framesA):] {
		wantB.WriteString(f.raw)
	}
	if !bytes.Equal(gotB.Bytes(), wantB.Bytes()) {
		t.Errorf("resumed stream not byte-identical:\ngot:\n%s\nwant:\n%s", gotB.String(), wantB.String())
	}
	// And the full replay's head matches what connection A saw live.
	for i, f := range framesA {
		if framesC[i].raw != f.raw {
			t.Errorf("replayed frame %d = %q, want %q", i, framesC[i].raw, f.raw)
		}
	}
}

// TestJobCancelRunning is the cancellation acceptance test: DELETE on a
// running job cancels the solve through the engine's context, the SSE
// stream ends with a terminal canceled state, and no goroutines leak.
func TestJobCancelRunning(t *testing.T) {
	before := runtime.NumGoroutine()
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	started, release := armGate(t)
	defer release()
	g := pathGraphJSON(t, 32, 5)

	sub := submitJob(t, ts.URL, jobSubmitRequest{solveRequest: solveRequest{Solver: "test-gate", K: 100, Graph: g}})
	<-started
	resp := openSSE(t, ts, sub.ID, "")

	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+sub.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status = %d", dresp.StatusCode)
	}

	frames := readFrames(t, bufio.NewReader(resp.Body), isTerminalFrame)
	resp.Body.Close()
	last := frames[len(frames)-1]
	if !strings.Contains(last.data, `"state":"canceled"`) {
		t.Fatalf("terminal frame after cancel = %+v", last)
	}
	if st := getJob(t, ts.URL, sub.ID); st.State != jobs.StateCanceled {
		t.Errorf("job state = %s, want canceled", st.State)
	}

	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.jobs.Shutdown(ctx); err != nil {
		t.Fatalf("jobs shutdown: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	t.Fatalf("goroutines: %d before, %d after:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
}

// TestJobDedup checks that identical jobs in flight together share one
// solve through the single-flight group: each keeps its own ID, the solver
// starts once, both results are byte-equal, and the join is counted once,
// as a shared flight. A different K and a noCache submission of the same
// request each solve on their own.
func TestJobDedup(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	started, release := armGate(t)
	defer release()
	sharedBefore := singleflightShared(t, s)
	g := pathGraphJSON(t, 32, 6)

	req := jobSubmitRequest{solveRequest: solveRequest{Solver: "test-gate", K: 100, Graph: g}}
	first := submitJob(t, ts.URL, req)
	<-started
	second := submitJob(t, ts.URL, req)
	if second.ID == first.ID {
		t.Fatalf("identical submissions share job ID %s", first.ID)
	}
	awaitFlightJoin(t, s, ts.URL, second.ID, 1)
	// A different K is a different solve. So is the same request with
	// noCache: it must neither join the flight nor lend its uncached
	// answer to one.
	other := submitJob(t, ts.URL, jobSubmitRequest{solveRequest: solveRequest{Solver: "test-gate", K: 200, Graph: g}})
	noCache := req
	noCache.NoCache = true
	bypass := submitJob(t, ts.URL, noCache)
	for range 2 {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("the different-K and noCache jobs did not both start a solve of their own")
		}
	}

	release()
	a := waitJobState(t, ts.URL, first.ID, jobs.StateSucceeded)
	b := waitJobState(t, ts.URL, second.ID, jobs.StateSucceeded)
	waitJobState(t, ts.URL, other.ID, jobs.StateSucceeded)
	waitJobState(t, ts.URL, bypass.ID, jobs.StateSucceeded)
	if !bytes.Equal(a.Result, b.Result) {
		t.Errorf("job results differ:\n%s\n%s", a.Result, b.Result)
	}
	if got := len(started); got != 0 {
		t.Errorf("solver started %d more times, want three solves for the four jobs", got)
	}
	if got := singleflightShared(t, s); got != sharedBefore+1 {
		t.Errorf("shared flights = %d, want %d: only the identical job joins", got, sharedBefore+1)
	}
}

// singleflightShared reads partitiond_singleflight_total{result="shared"}
// from /metrics.
func singleflightShared(t *testing.T, s *Server) uint64 {
	t.Helper()
	const series = `partitiond_singleflight_total{result="shared"} `
	text := doJSON(t, s.Handler(), "GET", "/metrics", nil).Body.String()
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, series); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatalf("metrics missing %s", series)
	return 0
}

// awaitFlightJoin waits until job id runs and has given its admission slot
// back, leaving inFlight slots held: the job joined a flight another caller
// leads.
func awaitFlightJoin(t *testing.T, s *Server, base, id string, inFlight int) {
	t.Helper()
	waitJobState(t, base, id, jobs.StateRunning)
	deadline := time.Now().Add(5 * time.Second)
	for s.limiter.Stats().InFlight != inFlight {
		if time.Now().After(deadline) {
			t.Fatalf("job %s still holds its admission slot: it did not join the running flight", id)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestJobDeleteWhileSharingFlight: a job DELETEd while it shares a
// synchronous request's flight ends canceled, and the request still gets
// its 200 from the one solve, which fills the cache.
func TestJobDeleteWhileSharingFlight(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	started, release := armGate(t)
	defer release()
	sreq := solveRequest{Solver: "test-gate", K: 42, Graph: pathGraphJSON(t, 16, 31)}
	syncDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { syncDone <- doJSONRaw(s.Handler(), "POST", "/v1/solve", sreq) }()
	<-started

	sub := submitJob(t, ts.URL, jobSubmitRequest{solveRequest: sreq})
	awaitFlightJoin(t, s, ts.URL, sub.ID, 1)
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+sub.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitJobState(t, ts.URL, sub.ID, jobs.StateCanceled)

	release()
	rec := <-syncDone
	if rec.Code != http.StatusOK {
		t.Fatalf("sync solve = %d: %s", rec.Code, rec.Body)
	}
	if n := len(gateCancels()); n != 0 {
		t.Errorf("the shared solve saw %d cancellations, want 0", n)
	}
	again := doJSON(t, s.Handler(), "POST", "/v1/solve", sreq)
	if again.Header().Get("X-Cache") != "HIT" || !bytes.Equal(again.Body.Bytes(), rec.Body.Bytes()) {
		t.Errorf("repeat solve: X-Cache %q, body %s; want a HIT with the same bytes %s",
			again.Header().Get("X-Cache"), again.Body, rec.Body)
	}
	if got := len(started); got != 0 {
		t.Errorf("solver started %d more times, want 0", got)
	}
}

// TestJobOutlivesSyncDeadline: jobs that share a flight ending on the
// synchronous request's deadline resolve again under their own deadline,
// sharing one fresh solve, and succeed, while the request gets its 504.
func TestJobOutlivesSyncDeadline(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	started, release := armGate(t)
	defer release()
	g := pathGraphJSON(t, 16, 32)
	syncDone := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		syncDone <- doJSONRaw(s.Handler(), "POST", "/v1/solve",
			solveRequest{Solver: "test-gate", K: 42, Graph: g, TimeoutMs: 1000})
	}()
	<-started

	var subs []JobSubmitResponse
	for range 2 {
		sub := submitJob(t, ts.URL, jobSubmitRequest{solveRequest: solveRequest{Solver: "test-gate", K: 42, Graph: g}})
		awaitFlightJoin(t, s, ts.URL, sub.ID, 1)
		subs = append(subs, sub)
	}
	if n := len(started); n != 0 {
		t.Fatalf("the jobs started %d solves of their own while the flight ran, want them to join", n)
	}
	if rec := <-syncDone; rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("sync solve = %d, want 504: %s", rec.Code, rec.Body)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("the jobs did not solve again after the shared flight's deadline")
	}
	release()
	for _, sub := range subs {
		st := waitJobState(t, ts.URL, sub.ID, jobs.StateSucceeded)
		var res SolveResponse
		if err := json.Unmarshal(st.Result, &res); err != nil || res.K != 42 {
			t.Errorf("job result = %s (%v)", st.Result, err)
		}
	}
	if n := len(started); n != 0 {
		t.Errorf("solver started %d more times, want one fresh solve for both jobs", n)
	}
}

// TestJobSyncJoinerLeavesAtItsBudget: a synchronous request that joins a job's
// flight waits no longer than its own budget (timeoutMs plus the queue wait
// and forwarding margin) and gets a 504, while the job's solve runs on and
// succeeds.
func TestJobSyncJoinerLeavesAtItsBudget(t *testing.T) {
	s := newTestServer(t, Config{QueueTimeout: 50 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	started, release := armGate(t)
	defer release()
	sreq := solveRequest{Solver: "test-gate", K: 42, Graph: pathGraphJSON(t, 16, 34)}
	sub := submitJob(t, ts.URL, jobSubmitRequest{solveRequest: sreq})
	<-started

	sreq.TimeoutMs = 100
	syncDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { syncDone <- doJSONRaw(s.Handler(), "POST", "/v1/solve", sreq) }()
	select {
	case rec := <-syncDone:
		if rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("sync solve = %d, want 504: %s", rec.Code, rec.Body)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the synchronous joiner waited past its budget for the job's solve")
	}
	release()
	waitJobState(t, ts.URL, sub.ID, jobs.StateSucceeded)
	if n := len(started); n != 0 {
		t.Errorf("solver started %d more times, want the request to have joined the job's solve", n)
	}
	if n := len(gateCancels()); n != 0 {
		t.Errorf("the job's solve saw %d cancellations, want 0", n)
	}
}

// TestJobJoinerReleasesSlot: with one solve slot, held by a job, a
// synchronous leader queues for that slot; when the job joins the leader's
// flight it gives the slot back, so the leader solves instead of shedding
// a 503 for both.
func TestJobJoinerReleasesSlot(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1, QueueTimeout: 10 * time.Second})
	started, release := armGate(t)
	defer release()
	sreq := solveRequest{Solver: "test-gate", K: 42, Graph: pathGraphJSON(t, 16, 33)}
	body, _ := json.Marshal(sreq)
	p, _, err := s.decodeSolve(httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body)))
	if err != nil {
		t.Fatal(err)
	}
	// The job takes the slot at once, then waits to resolve until the
	// synchronous leader is queued behind it.
	syncQueued := make(chan struct{})
	run := s.jobRun(p, "")
	j, err := s.jobs.Submit(jobs.Spec{Timeout: time.Minute, Run: func(ctx context.Context, j *jobs.Job) (any, error) {
		<-syncQueued
		return run(ctx, j)
	}})
	if err != nil {
		t.Fatal(err)
	}
	for j.State() != jobs.StateRunning {
		time.Sleep(time.Millisecond)
	}
	syncDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { syncDone <- doJSONRaw(s.Handler(), "POST", "/v1/solve", sreq) }()
	for s.limiter.Stats().Queued != 1 {
		time.Sleep(time.Millisecond)
	}
	close(syncQueued)

	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("the queued leader never got the slot the joining job held")
	}
	release()
	if rec := <-syncDone; rec.Code != http.StatusOK {
		t.Fatalf("sync solve = %d: %s", rec.Code, rec.Body)
	}
	<-j.Done()
	if st := j.State(); st != jobs.StateSucceeded {
		t.Fatalf("job state = %s (%s)", st, j.Snapshot().Error)
	}
	if got := len(started); got != 0 {
		t.Errorf("solver started %d more times, want one solve for both", got)
	}
}

// TestJobDeadline submits a job with a timeout too small for its solve; the
// job must fail terminally with a deadline message.
func TestJobDeadline(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	started, release := armGate(t)
	defer release()
	g := pathGraphJSON(t, 32, 7)

	sub := submitJob(t, ts.URL, jobSubmitRequest{solveRequest: solveRequest{
		Solver: "test-gate", K: 100, Graph: g, TimeoutMs: 30}})
	<-started
	st := waitJobState(t, ts.URL, sub.ID, jobs.StateFailed)
	if !strings.Contains(st.Error, "deadline") {
		t.Errorf("error = %q, want deadline message", st.Error)
	}
}

// TestHugeTimeoutMsClamps: a timeoutMs past the time.Duration range clamps
// to the server maximum instead of wrapping. A job keeps a deadline no later
// than MaxJobTimeout after submission, and a synchronous solve still runs
// instead of failing at once with 504.
func TestHugeTimeoutMsClamps(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	g := pathGraphJSON(t, 32, 7)
	for i, ms := range []int64{1e13, 1 << 62} {
		sub := submitJob(t, ts.URL, jobSubmitRequest{solveRequest: solveRequest{
			Solver: "bandwidth", K: 500, Graph: g, TimeoutMs: ms}})
		if sub.Deadline == nil || sub.Deadline.After(sub.Created.Add(s.cfg.MaxJobTimeout)) {
			t.Errorf("timeoutMs %d: job deadline %v, want one at most %v after created %v",
				ms, sub.Deadline, s.cfg.MaxJobTimeout, sub.Created)
		}
		waitJobState(t, ts.URL, sub.ID, jobs.StateSucceeded)
		if rec := doJSON(t, s.Handler(), "POST", "/v1/solve", solveBody(t, 63+uint64(i), map[string]any{"timeoutMs": ms})); rec.Code != http.StatusOK {
			t.Errorf("timeoutMs %d: solve status = %d, want 200; body %s", ms, rec.Code, rec.Body)
		}
	}
}

// TestJobBinarySubmit submits a PSV1 binary body with a priority query
// parameter and checks the job solves like its JSON twin.
func TestJobBinarySubmit(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	p := testPath(t, 64, 11)
	frame, err := AppendSolveRequest(nil, SolveParams{Solver: "bandwidth", K: 500}, p)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs?priority=3", "application/x-partition-bin", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("binary submit = %d, body = %s", resp.StatusCode, raw)
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.Priority != 3 {
		t.Errorf("priority = %d, want 3", sub.Priority)
	}
	st := waitJobState(t, ts.URL, sub.ID, jobs.StateSucceeded)
	var res SolveResponse
	if err := json.Unmarshal(st.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Solver != "bandwidth" || res.NumComponents == 0 {
		t.Errorf("result = %+v", res)
	}
}

// TestJobErrors covers the 4xx surface: unknown IDs, bad cursors, bad
// bodies.
func TestJobErrors(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, c := range []struct {
		method, path string
		want         int
	}{
		{"GET", "/v1/jobs/nope", http.StatusNotFound},
		{"DELETE", "/v1/jobs/nope", http.StatusNotFound},
		{"GET", "/v1/jobs/nope/events", http.StatusNotFound},
	} {
		req, _ := http.NewRequest(c.method, ts.URL+c.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s %s = %d, want %d", c.method, c.path, resp.StatusCode, c.want)
		}
	}

	// Bad submission: unknown fields are tolerated but a missing solver is a
	// 400 before any job is created.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"k":5}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing solver = %d, want 400", resp.StatusCode)
	}
	if st := s.jobs.Stats(); st.Submitted != 0 {
		t.Errorf("bad submission created a job: %+v", st)
	}

	// Bad resume cursor on a real job.
	g := pathGraphJSON(t, 16, 8)
	sub := submitJob(t, ts.URL, jobSubmitRequest{solveRequest: solveRequest{Solver: "bandwidth", K: 500, Graph: g}})
	waitJobState(t, ts.URL, sub.ID, jobs.StateSucceeded)
	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+sub.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", "not-a-number")
	bresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, bresp.Body)
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad cursor = %d, want 400", bresp.StatusCode)
	}
}

// TestJobQueueFullShed fills the job queue and checks the 429 + Retry-After
// shed path.
func TestJobQueueFullShed(t *testing.T) {
	s := newTestServer(t, Config{JobQueue: 1, MaxConcurrent: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	started, release := armGate(t)
	defer release()
	g := pathGraphJSON(t, 16, 9)

	submitJob(t, ts.URL, jobSubmitRequest{solveRequest: solveRequest{Solver: "test-gate", K: 100, Graph: g}})
	<-started
	submitJob(t, ts.URL, jobSubmitRequest{solveRequest: solveRequest{Solver: "test-gate", K: 101, Graph: g}})
	b, _ := json.Marshal(jobSubmitRequest{solveRequest: solveRequest{Solver: "test-gate", K: 102, Graph: g}})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

// TestJobDrain checks the graceful-drain contract at the server level:
// during Shutdown queued jobs turn terminal canceled, new submissions are
// shed with 503, the running job is force-canceled at the drain deadline,
// and open SSE streams end.
func TestJobDrain(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	started, release := armGate(t)
	defer release()
	g := pathGraphJSON(t, 16, 10)

	running := submitJob(t, ts.URL, jobSubmitRequest{solveRequest: solveRequest{Solver: "test-gate", K: 100, Graph: g}})
	<-started
	queued := submitJob(t, ts.URL, jobSubmitRequest{solveRequest: solveRequest{Solver: "test-gate", K: 101, Graph: g}})
	stream := openSSE(t, ts, running.ID, "")

	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		defer cancel()
		drainDone <- s.Shutdown(ctx)
	}()

	// The queued job cancels immediately; submissions shed while draining.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := getJob(t, ts.URL, queued.ID); st.State == jobs.StateCanceled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queued job not canceled during drain")
		}
		time.Sleep(2 * time.Millisecond)
	}
	b, _ := json.Marshal(jobSubmitRequest{solveRequest: solveRequest{Solver: "test-gate", K: 102, Graph: g}})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("submit during drain = %d, want 503", resp.StatusCode)
		}
	}

	// The gate solver ignores the drain window; the deadline force-cancels
	// it, the SSE stream delivers the terminal state and ends.
	frames := readFrames(t, bufio.NewReader(stream.Body), isTerminalFrame)
	stream.Body.Close()
	if len(frames) == 0 || !strings.Contains(frames[len(frames)-1].data, `"state":"canceled"`) {
		t.Fatalf("drain stream frames: %+v", frames)
	}
	if err := <-drainDone; err != context.DeadlineExceeded {
		t.Errorf("Shutdown err = %v, want DeadlineExceeded", err)
	}
	if st := getJob(t, ts.URL, running.ID); st.State != jobs.StateCanceled {
		t.Errorf("running job after forced drain = %s, want canceled", st.State)
	}
}

// TestJobResultCached checks a job for an already-cached solve returns the
// cached bytes without occupying a solver, marked cached in the status.
func TestJobResultCached(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	g := pathGraphJSON(t, 64, 12)

	// Prime the cache via the synchronous route.
	rec := doJSON(t, s.Handler(), "POST", "/v1/solve", solveRequest{Solver: "bandwidth", K: 500, Graph: g})
	if rec.Code != http.StatusOK {
		t.Fatalf("prime solve = %d", rec.Code)
	}
	sub := submitJob(t, ts.URL, jobSubmitRequest{solveRequest: solveRequest{Solver: "bandwidth", K: 500, Graph: g}})
	st := waitJobState(t, ts.URL, sub.ID, jobs.StateSucceeded)
	if !st.Cached {
		t.Error("job result not marked cached")
	}
	if !bytes.Equal(bytes.TrimRight(rec.Body.Bytes(), "\n"), []byte(st.Result)) {
		t.Errorf("cached job result differs from the synchronous response:\n%s\nvs\n%s", st.Result, rec.Body.Bytes())
	}
}

// holdSlot starts a synchronous test-gate solve and returns once it holds a
// solve slot; it runs until the gate is released.
func holdSlot(t *testing.T, ts *httptest.Server, started <-chan struct{}) {
	t.Helper()
	b, _ := json.Marshal(solveRequest{Solver: "test-gate", K: 100, Graph: pathGraphJSON(t, 16, 20)})
	go func() {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(b))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-started
}

// TestJobPriorityAtAdmission checks that priority decides which job gets a
// freed slot: a low-priority job submitted before a high-priority one waits
// in the queue (state queued, no start time) and runs second.
func TestJobPriorityAtAdmission(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	started, release := armGate(t)
	defer release()
	holdSlot(t, ts, started)

	low := submitJob(t, ts.URL, jobSubmitRequest{solveRequest: solveRequest{Solver: "bandwidth", K: 500, Graph: pathGraphJSON(t, 64, 21)}})
	high := submitJob(t, ts.URL, jobSubmitRequest{solveRequest: solveRequest{Solver: "bandwidth", K: 500, Graph: pathGraphJSON(t, 64, 22)}, Priority: 5})
	for _, id := range []string{low.ID, high.ID} {
		if st := getJob(t, ts.URL, id); st.State != jobs.StateQueued || st.Started != nil {
			t.Errorf("job %s waiting for the slot: state %s, started %v; want queued, not started", id, st.State, st.Started)
		}
	}

	release()
	lowSt := waitJobState(t, ts.URL, low.ID, jobs.StateSucceeded)
	highSt := waitJobState(t, ts.URL, high.ID, jobs.StateSucceeded)
	if lowSt.Started.Before(*highSt.Finished) {
		t.Errorf("low-priority job started at %v, before the high-priority job finished at %v",
			lowSt.Started, highSt.Finished)
	}
}

// TestJobCancelWhileWaiting checks that DELETE on a job still waiting for a
// slot is terminal in the 202 body and starts no solve.
func TestJobCancelWhileWaiting(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	started, release := armGate(t)
	defer release()
	holdSlot(t, ts, started)

	sub := submitJob(t, ts.URL, jobSubmitRequest{solveRequest: solveRequest{Solver: "test-gate", K: 101, Graph: pathGraphJSON(t, 16, 23)}})
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+sub.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status = %d, body = %s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), `"state":"canceled"`) || strings.Contains(string(raw), `"started"`) {
		t.Fatalf("cancel body = %s, want state canceled and no start time", raw)
	}

	// Free the slot and push another job through it: the canceled job
	// never reaches the solver.
	release()
	flush := submitJob(t, ts.URL, jobSubmitRequest{solveRequest: solveRequest{Solver: "bandwidth", K: 500, Graph: pathGraphJSON(t, 16, 24)}})
	waitJobState(t, ts.URL, flush.ID, jobs.StateSucceeded)
	if got := len(started); got != 0 {
		t.Errorf("%d gate solves started after the cancel, want 0", got)
	}
	if st := getJob(t, ts.URL, sub.ID); st.State != jobs.StateCanceled {
		t.Errorf("canceled job state = %s", st.State)
	}
}

// FuzzEventCursor: the SSE resume cursor, from Last-Event-ID or the "after"
// query parameter, accepts exactly what strconv.ParseUint(s, 10, 64) does
// and answers 400 for anything else.
func FuzzEventCursor(f *testing.F) {
	s := newTestServer(f, Config{})
	j, err := s.jobs.Submit(jobs.Spec{
		Timeout: time.Minute,
		Run:     func(context.Context, *jobs.Job) (any, error) { return nil, nil },
	})
	if err != nil {
		f.Fatal(err)
	}
	for !j.Snapshot().State.Terminal() {
		time.Sleep(time.Millisecond)
	}
	for _, seed := range []string{"", "0", "3", "007", "18446744073709551615", "18446744073709551616",
		"-1", "+1", " 1", "1 ", "1e3", "0x10", "1_000", "٣"} {
		f.Add(seed, false)
		f.Add(seed, true)
	}
	h := s.Handler()
	path := "/v1/jobs/" + j.ID + "/events"
	f.Fuzz(func(t *testing.T, cursor string, query bool) {
		target := path
		if query {
			target += "?after=" + url.QueryEscape(cursor)
		}
		req := httptest.NewRequest("GET", target, nil)
		if !query && cursor != "" {
			req.Header.Set("Last-Event-ID", cursor)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		want := http.StatusOK
		if _, err := strconv.ParseUint(cursor, 10, 64); err != nil && cursor != "" {
			want = http.StatusBadRequest
		}
		if rec.Code != want {
			t.Fatalf("cursor %q (query=%t) = %d, want %d", cursor, query, rec.Code, want)
		}
	})
}
