package jobs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// PhasePayload is the Data of "phase" events: one solve-phase span opening
// (End false) or closing (End true, with its duration). TraceID and SpanID
// carry the span's distributed-trace identity so SSE consumers can correlate
// phase events with the trace retained in the flight recorder (and with the
// X-Request-Id the job was submitted under).
type PhasePayload struct {
	Phase      string  `json:"phase"`
	End        bool    `json:"end,omitempty"`
	Root       bool    `json:"root,omitempty"`
	DurationMS float64 `json:"duration_ms,omitempty"`
	TraceID    string  `json:"trace_id,omitempty"`
	SpanID     string  `json:"span_id,omitempty"`
}

// PublishSpan bridges one live trace span notification into the job's event
// stream as a "phase" event. Wire it as the obs.Trace OnSpan hook of the
// trace the solve runs under:
//
//	tr := obs.New("job " + solver)
//	tr.OnSpan = job.PublishSpan
//
// It is safe for concurrent use, as OnSpan requires.
func (j *Job) PublishSpan(ev obs.SpanEvent) {
	p := PhasePayload{Phase: ev.Name, End: ev.End, Root: ev.Root}
	if ev.End {
		p.DurationMS = float64(ev.Duration.Microseconds()) / 1e3
	}
	if !ev.TraceID.IsZero() {
		p.TraceID = ev.TraceID.String()
	}
	if !ev.SpanID.IsZero() {
		p.SpanID = ev.SpanID.String()
	}
	j.publish("phase", p)
}

// WriteEvent writes ev as one Server-Sent Events frame:
//
//	id: <seq>
//	event: <type>
//	data: <json>
//	<blank line>
//
// The id line carries the sequence number a client echoes back in
// Last-Event-ID to resume; because Data was serialized at publish time, a
// replayed frame is byte-identical to its first delivery.
func WriteEvent(w io.Writer, ev Event) error {
	var b bytes.Buffer
	b.WriteString("id: ")
	b.WriteString(strconv.FormatUint(ev.Seq, 10))
	b.WriteString("\nevent: ")
	b.WriteString(ev.Type)
	b.WriteByte('\n')
	// JSON marshaling never emits raw newlines, but guard the framing
	// anyway: each line of the payload gets its own data: field per the SSE
	// grammar.
	for _, line := range bytes.Split(ev.Data, []byte{'\n'}) {
		b.WriteString("data: ")
		b.Write(line)
		b.WriteByte('\n')
	}
	b.WriteByte('\n')
	_, err := w.Write(b.Bytes())
	return err
}

// ReadEvent reads the next Server-Sent Events frame from r: the inverse of
// WriteEvent. Comment lines (leading ':', the server's keepalives) are
// skipped, repeated data fields join with '\n', and unknown fields are
// ignored. Only '\n' ends a line, so a frame WriteEvent wrote comes back
// with the same Seq, Type and Data; Time is not on the wire. At the end of
// the stream ReadEvent returns io.EOF, or io.ErrUnexpectedEOF when it ends
// inside a frame.
func ReadEvent(r *bufio.Reader) (Event, error) {
	var ev Event
	seen, hasData := false, false
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			if err == io.EOF && (seen || line != "") {
				err = io.ErrUnexpectedEOF
			}
			return Event{}, err
		}
		line = line[:len(line)-1]
		if line == "" {
			if seen {
				return ev, nil
			}
			continue
		}
		if line[0] == ':' {
			continue
		}
		field, value, _ := strings.Cut(line, ":")
		value = strings.TrimPrefix(value, " ")
		seen = true
		switch field {
		case "id":
			if ev.Seq, err = strconv.ParseUint(value, 10, 64); err != nil {
				return Event{}, fmt.Errorf("jobs: bad event id %q", value)
			}
		case "event":
			ev.Type = value
		case "data":
			if hasData {
				ev.Data = append(ev.Data, '\n')
			}
			ev.Data, hasData = append(ev.Data, value...), true
		}
	}
}
