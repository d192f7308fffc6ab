package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/codec"
)

// defaultClient builds the node-to-node HTTP client: generous connection
// pooling per peer (forwards are the hot path under load) and a bounded
// dial, with no overall client timeout — each forward carries its own
// context deadline sized to the solve it asks for.
func defaultClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

// StatusError is a forward that reached the peer but came back non-200 —
// the peer is alive and answered (overloaded, draining, or rejecting the
// request); it is not marked dead for these.
type StatusError struct {
	Code int
	Body string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("peer returned HTTP %d: %s", e.Code, e.Body)
}

// ForwardSolve posts a PSV1 solve frame to the owning peer's /v1/solve and
// returns the raw PRS1 response bytes; whether the owner answered from its
// cache counts in Status().Forwards. The request is tagged with
// InternalHeader so the owner never re-forwards, and with the caller's
// request ID so log lines and traces join across the hop. A non-empty
// traceHeader (see TraceHeader) propagates the caller's trace context; when
// the owner traced its side, spans is its SpansTrailer value, for the caller
// to decode and graft under its cluster-forward span. The trailer is never
// an error — tracing is best-effort, results are not.
//
// Transport-level failures (dial, write, read) mark the peer dead via
// ReportFailure — unless the caller's own context ended, which says nothing
// about the peer. HTTP-level failures come back as *StatusError and leave
// membership alone. Either way the caller is expected to fall back to a
// local solve.
func (c *Cluster) ForwardSolve(ctx context.Context, peerURL string, frame []byte, requestID, traceHeader string) (body []byte, spans string, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peerURL+"/v1/solve", bytes.NewReader(frame))
	if err != nil {
		c.fwdErr.Add(1)
		return nil, "", err
	}
	req.Header.Set("Content-Type", codec.ContentType)
	req.Header.Set("Accept", codec.ContentType)
	req.Header.Set(InternalHeader, "1")
	if requestID != "" {
		req.Header.Set("X-Request-Id", requestID)
	}
	if traceHeader != "" {
		req.Header.Set(TraceHeader, traceHeader)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		c.fwdErr.Add(1)
		if ctx.Err() == nil {
			c.ReportFailure(peerURL)
		}
		return nil, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		c.fwdErr.Add(1)
		return nil, "", &StatusError{Code: resp.StatusCode, Body: strings.TrimSpace(string(msg))}
	}
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		c.fwdErr.Add(1)
		if ctx.Err() == nil {
			c.ReportFailure(peerURL)
		}
		return nil, "", err
	}
	if resp.Header.Get("X-Cache") == "HIT" {
		c.fwdHit.Add(1)
	} else {
		c.fwdMiss.Add(1)
	}
	// Trailers are only populated after the body has been fully read.
	return body, resp.Trailer.Get(SpansTrailer), nil
}

// checkPeer probes one peer's /healthz under the health timeout. Only a
// clean 200 counts as alive — a draining node answers 503 and must stop
// receiving forwards before it stops serving.
func (c *Cluster) checkPeer(ctx context.Context, peerURL string) bool {
	hctx, cancel := context.WithTimeout(ctx, c.htimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(hctx, http.MethodGet, peerURL+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}
