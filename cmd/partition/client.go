package main

// The partitiond jobs client: with -server, partition stops solving locally
// and drives a daemon's async jobs API instead — submit the solve as a
// durable job (PSV1 binary on the wire), follow its Server-Sent Events
// stream, and print the result when the job lands. Solves too long for the
// daemon's synchronous deadline run to completion this way.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/server"
)

// remoteArgs carries the raw flag values into the remote dispatch.
type remoteArgs struct {
	server    string
	algo      string
	k         float64
	maxProcs  int
	timeout   time.Duration
	verify    bool
	in        string
	submit    bool
	wait      bool
	jobID     string
	priority  int
	localOnly bool // a local-only flag (-sweep/-dot/-trace/-stats) was set
}

// runRemote validates the remote flag combination, reads the graph when
// submitting, and hands off to runClient.
func runRemote(a remoteArgs) error {
	if a.localOnly {
		return fmt.Errorf("-sweep, -dot, -trace, -trace-out and -stats are local-only; the jobs API reports stats in the result")
	}
	opts := clientOptions{
		server: a.server, jobID: a.jobID, submit: a.submit, wait: a.wait, priority: a.priority,
	}
	if a.jobID != "" {
		// Attaching to an existing job: no graph, no K; always follow to a
		// terminal state and report.
		opts.wait = true
		return runClient(opts)
	}
	if !a.submit {
		return fmt.Errorf("-server needs -submit (optionally with -wait), or -wait -job <id> to attach")
	}
	if !(a.k > 0) {
		return fmt.Errorf("-k must be positive (got %v)", a.k)
	}
	if a.maxProcs < 0 {
		return fmt.Errorf("-m must be non-negative (got %d)", a.maxProcs)
	}
	if a.timeout < 0 {
		return fmt.Errorf("-timeout must be non-negative (got %v)", a.timeout)
	}
	name := a.algo
	if name == "pipeline" {
		name = "partition-tree"
	}
	g, err := readGraphInput(a.in)
	if err != nil {
		return fmt.Errorf("reading graph: %w", err)
	}
	opts.graph = g
	opts.params = server.SolveParams{
		Solver:        name,
		K:             a.k,
		MaxComponents: a.maxProcs,
		TimeoutMs:     a.timeout.Milliseconds(),
		Verify:        a.verify,
	}
	return runClient(opts)
}

// readGraphInput reads the graph from a file, or stdin when path is empty.
func readGraphInput(path string) (any, error) {
	var r io.Reader = os.Stdin
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return readGraph(r)
}

// clientOptions is everything the remote mode needs from the flag set.
type clientOptions struct {
	server   string // daemon base URL
	jobID    string // attach to an existing job instead of submitting
	submit   bool   // submit and print the job ID without waiting
	wait     bool   // follow the event stream until the job is terminal
	priority int
	params   server.SolveParams
	graph    any // nil when attaching
}

// jobSnapshot mirrors the daemon's job envelope (submit response and status
// body share these fields).
type jobSnapshot struct {
	ID        string          `json:"id"`
	State     string          `json:"state"`
	Error     string          `json:"error,omitempty"`
	EventsURL string          `json:"eventsUrl,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
	Cached    bool            `json:"cached,omitempty"`
}

// jobResultBody is the subset of the daemon's solve response the report
// prints.
type jobResultBody struct {
	Solver           string    `json:"solver"`
	K                float64   `json:"k"`
	Cut              []int     `json:"cut"`
	CutWeight        float64   `json:"cutWeight"`
	Bottleneck       float64   `json:"bottleneck"`
	ComponentWeights []float64 `json:"componentWeights"`
	NumComponents    int       `json:"numComponents"`
	Fingerprint      string    `json:"fingerprint"`
	Verify           *struct {
		Criterion string `json:"criterion"`
		Certified bool   `json:"certified"`
	} `json:"verify,omitempty"`
	Stats struct {
		DurationMs float64 `json:"durationMs"`
		Iterations int64   `json:"iterations"`
	} `json:"stats"`
}

// runClient is the -server entry point, dispatched from run() after the
// graph (when submitting) has been read.
func runClient(opts clientOptions) error {
	base, err := url.Parse(strings.TrimRight(opts.server, "/"))
	if err != nil || base.Scheme == "" || base.Host == "" {
		return fmt.Errorf("-server needs an absolute URL like http://localhost:8080 (got %q)", opts.server)
	}
	id := opts.jobID
	if id == "" {
		snap, err := submitClientJob(base, opts)
		if err != nil {
			return err
		}
		id = snap.ID
		fmt.Printf("job:              %s\n", id)
		fmt.Printf("state:            %s\n", snap.State)
		fmt.Printf("events:           %s%s\n", base, snap.EventsURL)
		if !opts.wait {
			return nil
		}
	}
	if err := followJob(base, id); err != nil {
		return err
	}
	return reportJob(base, id)
}

// submitClientJob posts the solve as a PSV1 frame to /v1/jobs.
func submitClientJob(base *url.URL, opts clientOptions) (*jobSnapshot, error) {
	frame, err := server.AppendSolveRequest(nil, opts.params, opts.graph)
	if err != nil {
		return nil, err
	}
	u := *base
	u.Path += "/v1/jobs"
	if opts.priority != 0 {
		u.RawQuery = "priority=" + strconv.Itoa(opts.priority)
	}
	resp, err := http.Post(u.String(), "application/x-partition-bin", strings.NewReader(string(frame)))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("submit: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var snap jobSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return nil, fmt.Errorf("submit: bad response: %w", err)
	}
	if snap.ID == "" {
		return nil, fmt.Errorf("submit: response carries no job ID: %s", body)
	}
	return &snap, nil
}

// followJob streams the job's SSE events, narrating progress on stderr, and
// returns once a terminal state event arrives. A dropped connection resumes
// from the last seen event ID, so no progress frames are lost or repeated.
func followJob(base *url.URL, id string) error {
	lastEventID := ""
	for attempt := 0; ; attempt++ {
		terminal, err := streamEvents(base, id, &lastEventID)
		if terminal {
			return nil
		}
		if err != nil && attempt >= 5 {
			return fmt.Errorf("event stream: %w", err)
		}
		// The daemon may be between us and the terminal event (stream cut by
		// a proxy, a keepalive gap); back off briefly and resume.
		time.Sleep(time.Duration(attempt+1) * 200 * time.Millisecond)
		if st, err := fetchJob(base, id); err == nil && terminalState(st.State) {
			return nil
		}
	}
}

// streamEvents runs one SSE connection, updating *lastEventID as frames
// arrive. It returns terminal=true once a terminal state event is seen.
func streamEvents(base *url.URL, id string, lastEventID *string) (bool, error) {
	req, err := http.NewRequest("GET", base.String()+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return false, err
	}
	if *lastEventID != "" {
		req.Header.Set("Last-Event-ID", *lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return false, fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var evID, evType, evData string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if evType != "" || evData != "" {
				if evID != "" {
					*lastEventID = evID
				}
				if terminal := printEvent(evType, evData); terminal {
					return true, nil
				}
			}
			evID, evType, evData = "", "", ""
		case strings.HasPrefix(line, ":"): // keepalive comment
		case strings.HasPrefix(line, "id: "):
			evID = line[len("id: "):]
		case strings.HasPrefix(line, "event: "):
			evType = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			if evData != "" {
				evData += "\n"
			}
			evData += line[len("data: "):]
		}
	}
	return false, errors.Join(sc.Err(), errors.New("stream ended before a terminal state"))
}

// printEvent narrates one SSE event on stderr and reports whether it was a
// terminal state transition.
func printEvent(typ, data string) bool {
	switch typ {
	case "state":
		var p struct {
			State string `json:"state"`
			Error string `json:"error,omitempty"`
		}
		if json.Unmarshal([]byte(data), &p) != nil {
			return false
		}
		if p.Error != "" {
			fmt.Fprintf(os.Stderr, "state: %s (%s)\n", p.State, p.Error)
		} else {
			fmt.Fprintf(os.Stderr, "state: %s\n", p.State)
		}
		return terminalState(p.State)
	case "phase":
		var p struct {
			Phase      string  `json:"phase"`
			End        bool    `json:"end,omitempty"`
			DurationMS float64 `json:"duration_ms,omitempty"`
		}
		if json.Unmarshal([]byte(data), &p) != nil {
			return false
		}
		if p.End {
			fmt.Fprintf(os.Stderr, "phase: %s done (%.3gms)\n", p.Phase, p.DurationMS)
		} else {
			fmt.Fprintf(os.Stderr, "phase: %s\n", p.Phase)
		}
	}
	return false
}

func terminalState(s string) bool {
	return s == "succeeded" || s == "failed" || s == "canceled"
}

// fetchJob GETs the job status envelope.
func fetchJob(base *url.URL, id string) (*jobSnapshot, error) {
	resp, err := http.Get(base.String() + "/v1/jobs/" + id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("job status: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var snap jobSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return nil, fmt.Errorf("job status: bad response: %w", err)
	}
	return &snap, nil
}

// reportJob prints the terminal job's outcome. Failed and canceled jobs
// return an error so scripts get a non-zero exit.
func reportJob(base *url.URL, id string) error {
	snap, err := fetchJob(base, id)
	if err != nil {
		return err
	}
	switch snap.State {
	case "failed":
		return fmt.Errorf("job %s failed: %s", id, snap.Error)
	case "canceled":
		return fmt.Errorf("job %s was canceled", id)
	case "succeeded":
	default:
		return fmt.Errorf("job %s is %s, not terminal", id, snap.State)
	}
	var res jobResultBody
	if err := json.Unmarshal(snap.Result, &res); err != nil {
		return fmt.Errorf("job result: %w", err)
	}
	fmt.Printf("solver:           %s\n", res.Solver)
	fmt.Printf("cut edges:        %v\n", res.Cut)
	fmt.Printf("cut weight:       %g\n", res.CutWeight)
	fmt.Printf("bottleneck edge:  %g\n", res.Bottleneck)
	fmt.Printf("components:       %d\n", res.NumComponents)
	fmt.Printf("component loads:  %v\n", res.ComponentWeights)
	if res.Verify != nil {
		status := "NOT CERTIFIED"
		if res.Verify.Certified {
			status = "certified"
		}
		fmt.Printf("certificate:      %s (%s)\n", status, res.Verify.Criterion)
	}
	if snap.Cached {
		fmt.Printf("cache:            HIT\n")
	}
	fmt.Printf("solve time:       %gms\n", res.Stats.DurationMs)
	fmt.Printf("iterations:       %d\n", res.Stats.Iterations)
	fmt.Printf("fingerprint:      %s\n", res.Fingerprint)
	if res.Verify != nil && !res.Verify.Certified {
		return fmt.Errorf("result failed the %s certificate", res.Verify.Criterion)
	}
	return nil
}
