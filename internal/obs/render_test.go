package obs

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// buildSampleTrace makes a small finished trace with two phases and attrs.
func buildSampleTrace() *Trace {
	tr := New("solve")
	tr.RequestID = "rid42"
	ctx := NewContext(context.Background(), tr)
	sctx, a := StartSpan(ctx, "prime-extract")
	SetAttr(a, "intervals", 7)
	a.End()
	_ = sctx
	_, b := StartSpan(ctx, "temps-dp")
	b.End()
	tr.Finish()
	return tr
}

func TestWriteText(t *testing.T) {
	var sb strings.Builder
	if err := buildSampleTrace().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{"request-id: rid42", "solve", "  prime-extract", "intervals=7", "  temps-dp"} {
		if !strings.Contains(got, want) {
			t.Errorf("text tree missing %q in:\n%s", want, got)
		}
	}
}

func TestWriteChromeIsValidTraceEventJSON(t *testing.T) {
	var sb strings.Builder
	if err := buildSampleTrace().WriteChrome(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   int64          `json:"ts"`
			Dur  int64          `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		OtherData       map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("WriteChrome output is not valid JSON: %v\n%s", err, sb.String())
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("got %d events, want 3 (root + 2 phases)", len(doc.TraceEvents))
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		names[ev.Name] = true
		if ev.Ph != "X" {
			t.Errorf("event %q ph = %q, want X", ev.Name, ev.Ph)
		}
		if ev.Ts < 0 || ev.Dur < 0 {
			t.Errorf("event %q has negative ts/dur: %d/%d", ev.Name, ev.Ts, ev.Dur)
		}
	}
	for _, want := range []string{"solve", "prime-extract", "temps-dp"} {
		if !names[want] {
			t.Errorf("missing event %q", want)
		}
	}
	if doc.OtherData["requestId"] != "rid42" {
		t.Errorf("otherData requestId = %q", doc.OtherData["requestId"])
	}
}

func TestTreeJSONRoundTrip(t *testing.T) {
	node := buildSampleTrace().Tree()
	b, err := json.Marshal(node)
	if err != nil {
		t.Fatal(err)
	}
	var back SpanNode
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != "solve" || len(back.Children) != 2 {
		t.Fatalf("round trip lost structure: %+v", back)
	}
}
