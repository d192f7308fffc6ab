package jobs

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// TestReadEventStream reads a stream the way an SSE client sees it:
// keepalive comments between frames, a multi-line data field, and the end
// of the stream after the last frame.
func TestReadEventStream(t *testing.T) {
	var b bytes.Buffer
	b.WriteString(": keepalive\n\n")
	WriteEvent(&b, Event{Seq: 1, Type: "state", Data: []byte(`{"state":"queued"}`)})
	b.WriteString(": keepalive\n\n")
	WriteEvent(&b, Event{Seq: 2, Type: "phase", Data: []byte("a\nb")})
	r := bufio.NewReader(&b)
	for _, want := range []Event{
		{Seq: 1, Type: "state", Data: []byte(`{"state":"queued"}`)},
		{Seq: 2, Type: "phase", Data: []byte("a\nb")},
	} {
		ev, err := ReadEvent(r)
		if err != nil || ev.Seq != want.Seq || ev.Type != want.Type || !bytes.Equal(ev.Data, want.Data) {
			t.Fatalf("ReadEvent = %+v, %v; want %+v", ev, err, want)
		}
	}
	if _, err := ReadEvent(r); err != io.EOF {
		t.Fatalf("ReadEvent at end = %v, want io.EOF", err)
	}
}

func TestReadEventErrors(t *testing.T) {
	for _, c := range []struct {
		name, in string
		want     error
	}{
		{"cut inside a frame", "id: 3\nevent: state\n", io.ErrUnexpectedEOF},
		{"cut inside a line", "id: 3\nevent: sta", io.ErrUnexpectedEOF},
		{"bad id", "id: x\n\n", nil},
	} {
		_, err := ReadEvent(bufio.NewReader(strings.NewReader(c.in)))
		if err == nil || c.want != nil && !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

// FuzzEventRoundTrip checks that ReadEvent inverts WriteEvent for any
// sequence number, any event type without a newline and any data.
func FuzzEventRoundTrip(f *testing.F) {
	f.Add(uint64(1), "state", []byte(`{"state":"running"}`), false)
	f.Add(uint64(7), "phase", []byte("line one\nline two\n"), false)
	f.Add(uint64(0), "", []byte{}, false)
	f.Add(uint64(42), "state", []byte(`{"state":"succeeded"}`), true)
	f.Fuzz(func(t *testing.T, seq uint64, typ string, data []byte, keepalive bool) {
		if strings.Contains(typ, "\n") {
			t.Skip()
		}
		var b bytes.Buffer
		if keepalive {
			b.WriteString(": keepalive\n\n")
		}
		if err := WriteEvent(&b, Event{Seq: seq, Type: typ, Data: data}); err != nil {
			t.Fatal(err)
		}
		r := bufio.NewReader(&b)
		ev, err := ReadEvent(r)
		if err != nil {
			t.Fatalf("ReadEvent(%q): %v", b.String(), err)
		}
		if ev.Seq != seq || ev.Type != typ || !bytes.Equal(ev.Data, data) {
			t.Fatalf("round trip = (%d, %q, %q), want (%d, %q, %q)", ev.Seq, ev.Type, ev.Data, seq, typ, data)
		}
		if _, err := ReadEvent(r); err != io.EOF {
			t.Fatalf("after the frame: %v, want io.EOF", err)
		}
	})
}
