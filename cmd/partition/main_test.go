package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/server"
)

var (
	binFlag    = flag.String("bin", "", "run this partition binary instead of the in-process run (to pin or compare another build)")
	updateFlag = flag.Bool("update", false, "rewrite the testdata golden files from the outputs instead of comparing against them")
)

// cliCase is one invocation: args (with $TMP standing for a scratch
// directory and $SERVER for a test daemon's URL), an optional testdata
// file piped to stdin, and the expected exit code and stderr substring.
// Unless nogolden is set, the exit code, the output and the files named
// in files are pinned in the test's golden file.
type cliCase struct {
	name     string
	args     string
	stdin    string
	code     int
	stderr   string
	stdout   string // substring, checked when nogolden is set
	files    []string
	nogolden bool
}

var localCases = []cliCase{
	{name: "list", args: "-list"},
	{name: "version", args: "-version", stdout: "partition ", nogolden: true},
	{name: "bandwidth text", args: "-algo bandwidth -k 200 -in testdata/path.txt"},
	{name: "bandwidth json", args: "-algo bandwidth -k 200 -in testdata/path.json"},
	{name: "bandwidth pgb1 stdin", args: "-algo bandwidth -k 200", stdin: "path.pgb"},
	{name: "bottleneck tree text", args: "-algo bottleneck -k 200 -in testdata/tree.txt"},
	{name: "bottleneck tree json", args: "-algo bottleneck -k 200 -in testdata/tree.json"},
	{name: "bottleneck tree pgb1", args: "-algo bottleneck -k 200 -in testdata/tree.pgb"},
	{name: "bottleneck path as tree", args: "-algo bottleneck -k 200 -in testdata/path.txt"},
	{name: "minproc tree text", args: "-algo minproc -k 200 -in testdata/tree.txt"},
	{name: "minproc tree json", args: "-algo minproc -k 200 -in testdata/tree.json"},
	{name: "minproc tree pgb1 stdin", args: "-algo minproc -k 200", stdin: "tree.pgb"},
	{name: "pipeline tree text", args: "-algo pipeline -k 200 -in testdata/tree.txt"},
	{name: "pipeline tree json", args: "-algo pipeline -k 200 -in testdata/tree.json"},
	{name: "pipeline tree pgb1", args: "-algo pipeline -k 200 -in testdata/tree.pgb"},
	{name: "sweep", args: "-sweep 100,200,400,1000 -in testdata/path.txt"},
	{name: "component cap", args: "-algo bandwidth -k 200 -m 7 -in testdata/path.json"},
	{name: "dot path", args: "-algo bandwidth -k 200 -in testdata/path.txt -dot $TMP/cut.dot", files: []string{"cut.dot"}},
	{name: "dot tree", args: "-algo minproc -k 200 -in testdata/tree.txt -dot $TMP/cut.dot", files: []string{"cut.dot"}},
	{name: "stats", args: "-algo bandwidth -k 200 -stats -in testdata/path.pgb"},
	{name: "machine flags", args: "-algo bandwidth -k 200 -procs 8 -speed 2 -bus 0.5 -in testdata/path.txt"},
	{name: "trace", args: "-algo bandwidth -k 200 -trace -trace-out $TMP/trace.json -in testdata/path.txt", stdout: "chrome trace:", nogolden: true},
	{name: "verify bandwidth", args: "-algo bandwidth -k 200 -verify -in testdata/path.txt"},
	{name: "verify minproc", args: "-algo minproc -k 200 -verify -in testdata/tree.txt"},
	{name: "verify maxmin-path", args: "-algo maxmin-path -k 3 -verify -in testdata/path.txt"},
	{name: "verify maxmin-tree", args: "-algo maxmin-tree -k 3 -verify -in testdata/tree.pgb"},
	{name: "verify summax-tree", args: "-algo summax-tree -k 3 -verify -in testdata/tree.json"},
	{name: "verify unavailable", args: "-algo treecut-greedy -k 200 -verify -in testdata/tree.txt"},

	// Missing or bad input.
	{name: "missing -k", args: "-in testdata/path.txt", code: 1, stderr: "-k must be positive (got 0)"},
	{name: "negative -k", args: "-k -5 -in testdata/path.txt", code: 1, stderr: "-k must be positive (got -5)"},
	{name: "negative -m", args: "-k 200 -m -1 -in testdata/path.txt", code: 1, stderr: "-m must be non-negative (got -1)"},
	{name: "negative -timeout", args: "-k 200 -timeout -1s -in testdata/path.txt", code: 1, stderr: "-timeout must be non-negative"},
	{name: "negative -procs", args: "-k 200 -procs -1 -in testdata/path.txt", code: 1, stderr: "-procs must be non-negative"},
	{name: "zero -speed", args: "-k 200 -speed 0 -in testdata/path.txt", code: 1, stderr: "-speed must be positive"},
	{name: "zero -bus", args: "-k 200 -bus 0 -in testdata/path.txt", code: 1, stderr: "-bus must be positive"},
	{name: "unreadable -in", args: "-k 200 -in testdata/missing.txt", code: 1, stderr: "no such file or directory"},
	{name: "malformed graph", args: "-k 200 -in testdata/malformed.txt", code: 1, stderr: "reading graph: line 2"},
	{name: "sweep on a tree", args: "-sweep 100 -in testdata/tree.txt", code: 1, stderr: "-sweep needs a path graph"},
	{name: "bad sweep value", args: "-sweep 100,x -in testdata/path.txt", code: 1, stderr: `bad sweep value "x"`},
	{name: "unknown -algo", args: "-algo nosuch -k 200 -in testdata/path.txt", code: 1, stderr: `unknown solver: "nosuch"`},
	{name: "path solver on a tree", args: "-algo bandwidth -k 200 -in testdata/tree.txt", code: 1, stderr: "needs a path graph"},
	{name: "infeasible K", args: "-algo bandwidth -k 50 -in testdata/path.txt", code: 1, stderr: "no feasible partition"},
	{name: "infeasible cap", args: "-algo bandwidth -k 200 -m 2 -in testdata/path.txt", code: 1, stderr: "no feasible cut with at most 2 components"},
	{name: "-submit without -server", args: "-submit -k 200 -in testdata/path.txt", code: 1, stderr: "need -server"},
	{name: "-job without -server", args: "-wait -job j1", code: 1, stderr: "need -server"},
	{name: "local-only flag with -server", args: "-server http://127.0.0.1:1 -submit -k 200 -stats -in testdata/path.txt", code: 1, stderr: "are local-only"},
	{name: "-server without -submit", args: "-server http://127.0.0.1:1 -k 200 -in testdata/path.txt", code: 1, stderr: "-server needs -submit"},
	{name: "-server missing -k", args: "-server http://127.0.0.1:1 -submit -in testdata/path.txt", code: 1, stderr: "-k must be positive"},
	{name: "-server not absolute", args: "-server localhost:8080 -submit -k 200 -in testdata/path.txt", code: 1, stderr: "-server needs an absolute URL"},

	// Flag parsing.
	{name: "unknown flag", args: "-bogus", code: 2, stderr: "flag provided but not defined: -bogus"},
	{name: "bad flag value", args: "-k abc", code: 2, stderr: `invalid value "abc" for flag -k`},
	{name: "help", args: "-h", stderr: "Usage of partition:"},
}

// TestLocal runs every in-process case and pins its exit code, stdout,
// stderr and written files in testdata/golden.txt.
func TestLocal(t *testing.T) {
	runCases(t, "golden.txt", localCases, "", maskStats)
}

// TestRemote drives partitiond job submissions against an in-process
// daemon and pins the exit code and stdout in testdata/golden_remote.txt.
// Job IDs, the daemon's URL and solve times vary per run and are masked, as
// is the submit-time state: the job queue may already have started the job
// when the submission answers.
func TestRemote(t *testing.T) {
	url := startServer(t, nil)
	mask := func(s string) string {
		s = strings.ReplaceAll(s, url, "$SERVER")
		s = jobIDRE.ReplaceAllString(s, "$$JOB")
		s = submitStateRE.ReplaceAllString(s, "${1}*")
		return maskStats(s)
	}
	runCases(t, "golden_remote.txt", []cliCase{
		{name: "submit", args: "-server $SERVER -algo bandwidth -k 200 -submit -in testdata/path.txt"},
		{name: "submit wait", args: "-server $SERVER -algo bottleneck -k 200 -submit -wait -in testdata/tree.txt", stderr: "state: succeeded"},
		{name: "submit wait cache hit", args: "-server $SERVER/ -algo bottleneck -k 200 -submit -wait -in testdata/tree.txt"},
		{name: "submit wait verify priority stdin", args: "-server $SERVER -algo minproc -k 200 -verify -priority 3 -submit -wait", stdin: "tree.pgb"},
		{name: "submit wait pipeline path", args: "-server $SERVER -algo pipeline -k 200 -submit -wait -in testdata/path.json"},
		{name: "failed job", args: "-server $SERVER -algo bandwidth -k 200 -m 2 -submit -wait -in testdata/path.txt", code: 1, stderr: "failed: no feasible cut with at most 2 components"},
	}, url, mask)
}

var (
	statsRE       = regexp.MustCompile(`(?m)^(solve time: +).*$`)
	jobIDRE       = regexp.MustCompile(`\bj[0-9a-f]{16}\b`)
	submitStateRE = regexp.MustCompile(`(?m)^(state: +)\w+$`)
)

func maskStats(s string) string { return statsRE.ReplaceAllString(s, "${1}*") }

// runCases runs cases in order, checks each against its expectations, and
// compares the golden records with testdata/<file>, or rewrites it under
// -update.
func runCases(t *testing.T, file string, cases []cliCase, serverURL string, mask func(string) string) {
	want := readGolden(t, file)
	var all strings.Builder
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tmp := t.TempDir()
			args := strings.Fields(strings.NewReplacer("$TMP", tmp, "$SERVER", serverURL).Replace(c.args))
			var stdin []byte
			if c.stdin != "" {
				stdin = readFile(t, filepath.Join("testdata", c.stdin))
			}
			got := partition(t, stdin, args...)
			if got.code != c.code || !strings.Contains(got.stderr, c.stderr) {
				t.Errorf("exit %d, stderr %q; want exit %d, stderr containing %q", got.code, got.stderr, c.code, c.stderr)
			}
			if c.nogolden {
				if !strings.Contains(got.stdout, c.stdout) {
					t.Errorf("stdout %q does not contain %q", got.stdout, c.stdout)
				}
				return
			}
			rec := fmt.Sprintf("exit %d\n-- stdout --\n%s", got.code, mask(got.stdout))
			if serverURL == "" {
				rec += "-- stderr --\n" + got.stderr
			}
			for _, f := range c.files {
				rec += "-- " + f + " --\n" + string(readFile(t, filepath.Join(tmp, f)))
			}
			fmt.Fprintf(&all, "== %s\n%s", c.name, rec)
			if !*updateFlag && rec != want[c.name] {
				t.Errorf("output differs from testdata/%s\n got:\n%s\nwant:\n%s", file, rec, want[c.name])
			}
		})
	}
	if *updateFlag && !t.Failed() {
		if err := os.WriteFile(filepath.Join("testdata", file), []byte(all.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// readGolden splits a golden file into its "== name" records.
func readGolden(t *testing.T, file string) map[string]string {
	recs := map[string]string{}
	if *updateFlag {
		return recs
	}
	var name string
	for _, line := range strings.SplitAfter(string(readFile(t, filepath.Join("testdata", file))), "\n") {
		if n, ok := strings.CutPrefix(line, "== "); ok {
			name = strings.TrimSuffix(n, "\n")
			continue
		}
		recs[name] += line
	}
	return recs
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

type outcome struct {
	code           int
	stdout, stderr string
}

// partition runs the command with args and stdin: in-process through run,
// or as the -bin binary.
func partition(t *testing.T, stdin []byte, args ...string) outcome {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if *binFlag == "" {
		code := run(append([]string{"partition"}, args...), bytes.NewReader(stdin), &stdout, &stderr)
		return outcome{code, stdout.String(), stderr.String()}
	}
	cmd := exec.Command(*binFlag, args...)
	cmd.Args[0] = "partition"
	cmd.Stdin, cmd.Stdout, cmd.Stderr = bytes.NewReader(stdin), &stdout, &stderr
	code := 0
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatal(err)
		}
		code = ee.ExitCode()
	}
	return outcome{code, stdout.String(), stderr.String()}
}

// startServer runs an in-process partitiond for the test, behind wrap when
// it is non-nil, and returns its base URL.
func startServer(t *testing.T, wrap func(http.Handler) http.Handler) string {
	s := server.New(server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	h := s.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return ts.URL
}

// submittedJob returns the job ID a -submit run printed.
func submittedJob(t *testing.T, out outcome) string {
	t.Helper()
	id := jobIDRE.FindString(out.stdout)
	if out.code != 0 || id == "" {
		t.Fatalf("submit: exit %d, stdout %q, stderr %q", out.code, out.stdout, out.stderr)
	}
	return id
}

// TestRemoteCanceledJob cancels a running job and checks that attaching to
// it reports the cancellation with exit status 1.
func TestRemoteCanceledJob(t *testing.T) {
	url := startServer(t, nil)
	// bandwidth-naive takes seconds on this path, far longer than the test
	// needs to cancel it.
	const n = 100000
	nodeW, edgeW := make([]float64, n), make([]float64, n-1)
	for i := range nodeW {
		nodeW[i] = float64(1 + i%97)
	}
	for i := range edgeW {
		edgeW[i] = float64(1 + i%13)
	}
	p, err := graph.NewPath(nodeW, edgeW)
	if err != nil {
		t.Fatal(err)
	}
	var in bytes.Buffer
	if err := graph.WritePath(&in, p); err != nil {
		t.Fatal(err)
	}
	id := submittedJob(t, partition(t, in.Bytes(), "-server", url, "-algo", "bandwidth-naive", "-k", "2500000", "-submit"))
	req, _ := http.NewRequest("DELETE", url+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: %s", resp.Status)
	}
	got := partition(t, nil, "-server", url, "-wait", "-job", id)
	if got.code != 1 || !strings.Contains(got.stderr, "job "+id+" was canceled") || got.stdout != "" {
		t.Fatalf("attach: exit %d, stdout %q, stderr %q; want exit 1 and the cancellation", got.code, got.stdout, got.stderr)
	}
}

// TestAttachUnknownJobFailsFast attaches to a job the daemon never saw: the
// 404 ends the attach at once, with the daemon's message, instead of after
// the back-off retries a dropped stream gets.
func TestAttachUnknownJobFailsFast(t *testing.T) {
	url := startServer(t, nil)
	start := time.Now()
	got := partition(t, nil, "-server", url, "-wait", "-job", "jBOGUS")
	if elapsed := time.Since(start); elapsed >= time.Second {
		t.Errorf("attach took %v, want under 1s", elapsed)
	}
	if got.code != 1 || !strings.Contains(got.stderr, "404 Not Found") || !strings.Contains(got.stderr, "unknown job jBOGUS") {
		t.Errorf("exit %d, stderr %q; want exit 1 with the 404 body", got.code, got.stderr)
	}
}

// TestRemoteSubMillisecondTimeout checks that a -timeout under 1ms still
// bounds the job, rather than reaching the daemon as "no timeout" and
// picking up its 15-minute job default.
func TestRemoteSubMillisecondTimeout(t *testing.T) {
	url := startServer(t, nil)
	id := submittedJob(t, partition(t, nil, "-server", url, "-algo", "bandwidth", "-k", "200", "-timeout", "500us", "-submit", "-in", "testdata/path.txt"))
	st, err := fetchJob(url, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Deadline == nil || st.Deadline.Sub(st.Created) > time.Second {
		t.Fatalf("job created %v, deadline %v; want a deadline within 1s", st.Created, st.Deadline)
	}
}

// TestAttachRetriesServerError checks that a 5xx on the event stream, unlike
// a 4xx, keeps the attach going: the client backs off, finds the job
// finished, and reports it.
func TestAttachRetriesServerError(t *testing.T) {
	var failed atomic.Bool
	url := startServer(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/events") && failed.CompareAndSwap(false, true) {
				http.Error(w, "try again", http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	got := partition(t, nil, "-server", url, "-algo", "bandwidth", "-k", "200", "-submit", "-wait", "-in", "testdata/path.txt")
	if got.code != 0 || !failed.Load() || !strings.Contains(got.stdout, "solver:           bandwidth") {
		t.Fatalf("exit %d, stdout %q, stderr %q; want the report after one 503", got.code, got.stdout, got.stderr)
	}
}
