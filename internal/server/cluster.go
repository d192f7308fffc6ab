package server

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"net/http"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// Cluster forwarding. With a cluster configured, a cache miss on a graph
// this node does not own is forwarded to the owning peer as a PSV1 binary
// frame (see resolveMiss); the owner answers with the PRS1 frame it would
// serve locally, so binary clients get byte-identical results whether or not
// their request crossed a node boundary. Forwarding is best-effort: any
// failure falls back to a local solve, so a dead owner costs dedup and cache
// locality, never availability.

// clusterMetrics attributes cache lookups to the requester tier: "local"
// for external clients of this node, "peer" for forwarded internal requests
// from other cluster nodes (the owner serving its shard).
type clusterMetrics struct {
	localHits, localMisses atomic.Uint64
	peerHits, peerMisses   atomic.Uint64
}

func (m *clusterMetrics) observeLookup(internal, hit bool) {
	switch {
	case internal && hit:
		m.peerHits.Add(1)
	case internal:
		m.peerMisses.Add(1)
	case hit:
		m.localHits.Add(1)
	default:
		m.localMisses.Add(1)
	}
}

// forwardSolve encodes the parsed request as a PSV1 frame and asks the
// owning peer to solve it within timeoutMs, returning the owner's PRS1
// frame. The hop ends with ctx: the synchronous budget resolve set, or the
// job's own deadline. It runs under a cluster-forward span whose identity
// travels in the trace header; when the owner answers with its span tree in
// the response trailer, that tree is grafted under the span — one request,
// one tree, cluster-wide.
// Reports ok=false on any failure, leaving the caller to solve locally; the
// cluster transport has already recorded the outcome and marked the peer
// dead when the failure was transport-level.
func (s *Server) forwardSolve(ctx context.Context, tr *obs.Trace, p *parsedSolve, peer string, timeoutMs int64) (resolved, bool) {
	// Trace and noCache are local concerns and do not cross the hop; the
	// owner always answers the cacheable untraced binary form.
	frame, err := AppendSolveRequest(nil, SolveParams{
		Solver:        p.req.Solver,
		K:             p.req.K,
		MaxComponents: p.req.MaxComponents,
		TimeoutMs:     timeoutMs,
		Verify:        p.req.Verify,
	}, p.g)
	if err != nil {
		return resolved{}, false
	}
	sp := obs.Phase(ctx, "cluster-forward")
	obs.SetAttr(sp, "peer", peer)
	hdr := obs.FormatTraceHeader(obs.Remote{Trace: tr.ID, Span: sp.ID, Flags: obs.FlagSampled})
	body, spans, err := s.cluster.ForwardSolve(ctx, peer, frame, obs.RequestIDFrom(ctx), hdr)
	defer sp.End()
	if err != nil {
		s.cfg.Logger.Warn("cluster forward failed, solving locally",
			"peer", peer, "solver", p.req.Solver, "err", err)
		return resolved{}, false
	}
	// Validate the frame before sharing it: waiters of every format render
	// from these bytes, and a corrupt answer must degrade to a local solve,
	// not surface as a 500.
	if _, rest, err := DecodeSolveResult(body); err != nil || len(rest) != 0 {
		s.cfg.Logger.Warn("cluster forward returned a bad frame, solving locally",
			"peer", peer, "err", err)
		return resolved{}, false
	}
	graftSpans(sp, spans, peer)
	// io.ReadAll grew body by doubling; the frame outlives this request in
	// the cache, so keep exactly its bytes.
	exact := make([]byte, len(body))
	copy(exact, body)
	return resolved{frame: exact, via: peer}, true
}

// maxSpansTrailer bounds the decoded size of a peer's span-tree trailer. A
// span tree for one request is a few KiB; anything near this limit is a
// misbehaving peer and the trailer is dropped, never the response.
const maxSpansTrailer = 1 << 20

// graftSpans decodes the owner's span tree from the cluster.SpansTrailer
// value (base64 of the tree's JSON) and grafts it under sp, marked remote
// and attributed to peer. Tracing is best-effort: an empty, oversized or
// malformed trailer grafts nothing.
func graftSpans(sp *obs.Span, trailer, peer string) {
	if trailer == "" || base64.StdEncoding.DecodedLen(len(trailer)) > maxSpansTrailer {
		return
	}
	spans, err := base64.StdEncoding.DecodeString(trailer)
	if err != nil {
		return
	}
	var node obs.SpanNode
	if err := json.Unmarshal(spans, &node); err != nil || node.Name == "" {
		return
	}
	if node.Attrs == nil {
		node.Attrs = make(map[string]any, 2)
	}
	node.Attrs["remote"] = true
	node.Attrs["peer"] = peer
	sp.Graft(&node)
}

// clusterEnvelope is the cluster summary inside the /v1/solvers envelope.
type clusterEnvelope struct {
	Enabled bool   `json:"enabled"`
	Self    string `json:"self,omitempty"`
	Size    int    `json:"size,omitempty"`
	Alive   int    `json:"alive,omitempty"`
}

// clusterResponse is the body of GET /v1/cluster.
type clusterResponse struct {
	Enabled      bool                 `json:"enabled"`
	Self         string               `json:"self,omitempty"`
	VirtualNodes int                  `json:"virtualNodes,omitempty"`
	Peers        []cluster.PeerStatus `json:"peers,omitempty"`
	Alive        int                  `json:"alive,omitempty"`
	Forwards     cluster.ForwardStats `json:"forwards"`
	Singleflight singleflightInfo     `json:"singleflight"`
}

type singleflightInfo struct {
	Leads  uint64 `json:"leads"`
	Shared uint64 `json:"shared"`
}

// handleCluster is GET /v1/cluster: this node's membership view, forward
// counters, and single-flight stats. Answers on every node — clustered or
// not — so operators can probe any address the same way.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	var resp clusterResponse
	leads, shared := s.flight.Stats()
	resp.Singleflight = singleflightInfo{Leads: leads, Shared: shared}
	if s.cluster != nil {
		st := s.cluster.Status()
		resp.Enabled = true
		resp.Self = st.Self
		resp.VirtualNodes = st.VirtualNodes
		resp.Peers = st.Peers
		resp.Alive = st.Alive
		resp.Forwards = st.Forwards
	}
	body, _ := json.Marshal(&resp)
	writeJSON(w, http.StatusOK, body)
}

// writeClusterMetrics renders the cache-tier, single-flight, and cluster
// series. The first two exist on every node; the cluster families only when
// clustering is configured.
func (s *Server) writeClusterMetrics(p *obs.PromWriter) {
	m := &s.clusterm
	p.Family("partitiond_cache_requests_total", "counter", "Result cache lookups by requester tier (local clients vs forwarded peer requests) and outcome.")
	p.Sample("partitiond_cache_requests_total", m.localHits.Load(), "tier", "local", "result", "hit")
	p.Sample("partitiond_cache_requests_total", m.localMisses.Load(), "tier", "local", "result", "miss")
	p.Sample("partitiond_cache_requests_total", m.peerHits.Load(), "tier", "peer", "result", "hit")
	p.Sample("partitiond_cache_requests_total", m.peerMisses.Load(), "tier", "peer", "result", "miss")

	leads, shared := s.flight.Stats()
	p.Family("partitiond_singleflight_total", "counter", "Solve-miss single-flight outcomes: led executions vs results shared from a concurrent identical miss.")
	p.Sample("partitiond_singleflight_total", leads, "result", "lead")
	p.Sample("partitiond_singleflight_total", shared, "result", "shared")

	if s.cluster == nil {
		return
	}
	st := s.cluster.Status()
	p.Family("partitiond_cluster_forwards_total", "counter", "Solves forwarded to owning peers by outcome (hit/miss = owner's cache answer; error = failed forward, solved locally).")
	p.Sample("partitiond_cluster_forwards_total", st.Forwards.Hit, "outcome", "hit")
	p.Sample("partitiond_cluster_forwards_total", st.Forwards.Miss, "outcome", "miss")
	p.Sample("partitiond_cluster_forwards_total", st.Forwards.Errors, "outcome", "error")
	p.Family("partitiond_cluster_peers", "gauge", "Cluster peers by health state, from this node's view (self counts as alive).")
	p.Sample("partitiond_cluster_peers", st.Alive, "state", "alive")
	p.Sample("partitiond_cluster_peers", len(st.Peers)-st.Alive, "state", "dead")
}
