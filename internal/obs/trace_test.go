package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeNesting(t *testing.T) {
	tr := New("root")
	ctx := NewContext(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("FromContext did not return the attached trace")
	}

	actx, a := StartSpan(ctx, "phase-a")
	if a == nil {
		t.Fatal("StartSpan returned nil span on a traced context")
	}
	_, a1 := StartSpan(actx, "phase-a-child")
	SetAttr(a1, "n", 42)
	a1.End()
	a.End()
	_, b := StartSpan(ctx, "phase-b") // sibling of a: parent ctx reused
	b.End()
	tr.Finish()

	root := tr.Tree()
	if root.Name != "root" {
		t.Fatalf("root name = %q", root.Name)
	}
	if len(root.Children) != 2 {
		t.Fatalf("root has %d children, want 2 (a, b)", len(root.Children))
	}
	if root.Children[0].Name != "phase-a" || root.Children[1].Name != "phase-b" {
		t.Fatalf("children = %q, %q", root.Children[0].Name, root.Children[1].Name)
	}
	sub := root.Children[0].Children
	if len(sub) != 1 || sub[0].Name != "phase-a-child" {
		t.Fatalf("phase-a children = %+v, want one phase-a-child", sub)
	}
	if got := sub[0].Attrs["n"]; got != 42 {
		t.Fatalf("attr n = %v, want 42", got)
	}
	if root.DurationUs < 0 || root.StartUs != 0 {
		t.Fatalf("root offsets: start=%d dur=%d", root.StartUs, root.DurationUs)
	}
}

func TestStartSpanWithoutTraceIsNoop(t *testing.T) {
	ctx := context.Background()
	got, sp := StartSpan(ctx, "x")
	if got != ctx {
		t.Error("StartSpan without a trace should return the input context")
	}
	if sp != nil {
		t.Error("StartSpan without a trace should return a nil span")
	}
	// All nil-span methods must be safe.
	sp.End()
	SetAttr(sp, "k", "v")
	if sp.PhaseTotals() != nil {
		t.Error("nil span PhaseTotals should be nil")
	}
	var tr *Trace
	tr.Finish()
	if tr.Root() != nil || tr.Tree() != nil || tr.PhaseTotals() != nil {
		t.Error("nil trace accessors should return nil")
	}
	if err := tr.WriteText(nil); err != nil {
		t.Errorf("nil trace WriteText: %v", err)
	}
}

func TestStartSpanDisabledAllocFree(t *testing.T) {
	ctx := context.Background()
	// n starts past the runtime's cache of small boxed integers, so a
	// setter that boxed its value before the nil check would allocate.
	n := 1 << 10
	allocs := testing.AllocsPerRun(1000, func() {
		c, sp := StartSpan(ctx, "hot-phase")
		SetAttr(sp, "i", 1)
		n++
		SetAttr(sp, "n", n)
		SetAttr(sp, "x", float64(n))
		sp.End()
		_ = c
	})
	if allocs != 0 {
		t.Fatalf("disabled StartSpan/SetAttr/End allocated %.1f times per run, want 0", allocs)
	}
}

func TestPhaseTotals(t *testing.T) {
	tr := New("root")
	ctx := NewContext(context.Background(), tr)
	for i := 0; i < 3; i++ {
		_, sp := StartSpan(ctx, "probe")
		time.Sleep(time.Millisecond)
		sp.End()
	}
	pctx, outer := StartSpan(ctx, "outer")
	_, inner := StartSpan(pctx, "probe") // nested same-name span still aggregates
	inner.End()
	outer.End()
	tr.Finish()

	totals := tr.PhaseTotals()
	if got := totals["probe"].Count; got != 4 {
		t.Errorf("probe count = %d, want 4", got)
	}
	if totals["probe"].Total <= 0 {
		t.Errorf("probe total = %v, want > 0", totals["probe"].Total)
	}
	if got := totals["outer"].Count; got != 1 {
		t.Errorf("outer count = %d, want 1", got)
	}
	if _, ok := totals["root"]; ok {
		t.Error("the root span itself must not appear in PhaseTotals")
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := New("batch")
	ctx := NewContext(context.Background(), tr)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sctx, sp := StartSpan(ctx, "item")
			_, c := StartSpan(sctx, "work")
			c.End()
			sp.End()
		}()
	}
	wg.Wait()
	tr.Finish()
	totals := tr.PhaseTotals()
	if totals["item"].Count != 16 || totals["work"].Count != 16 {
		t.Fatalf("totals = %+v, want 16 items and 16 works", totals)
	}
}

func TestRequestIDHelpers(t *testing.T) {
	ctx := context.Background()
	if got := RequestIDFrom(ctx); got != "" {
		t.Errorf("empty context request ID = %q", got)
	}
	ctx = WithRequestID(ctx, "abc123")
	if got := RequestIDFrom(ctx); got != "abc123" {
		t.Errorf("request ID = %q, want abc123", got)
	}
	a, b := NewRequestID(), NewRequestID()
	if a == b {
		t.Errorf("NewRequestID returned duplicates: %q", a)
	}
	if len(a) != 16 || strings.Trim(a, "0123456789abcdef") != "" {
		t.Errorf("NewRequestID %q is not 16 hex chars", a)
	}
}

func TestSecondEndKeepsFirstDuration(t *testing.T) {
	tr := New("root")
	ctx := NewContext(context.Background(), tr)
	_, sp := StartSpan(ctx, "p")
	sp.End()
	d := sp.Duration
	time.Sleep(2 * time.Millisecond)
	sp.End()
	if sp.Duration != d {
		t.Errorf("second End overwrote duration: %v -> %v", d, sp.Duration)
	}
}
