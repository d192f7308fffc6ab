// Package cluster federates N partitiond nodes into one logical solve cache.
//
// A consistent-hash ring over graph fingerprints (ring.go) assigns every
// task graph an owning node. A node that misses its local cache on a graph
// it does not own forwards the solve to the owner over the existing PSV1
// binary wire format (transport.go); the owner solves under a single-flight
// group (flight.go), so a thundering herd on one hot graph — hitting any
// subset of nodes — performs exactly one engine solve cluster-wide, and the
// result lands in the owner's cache plus the caches of every node that
// forwarded.
//
// Membership is a static peer list with optional periodic /healthz checking:
// a peer that fails its health check (or a forward) is marked dead and drops
// off the ring until a later check revives it. Ownership then falls to the
// remaining peers with minimal remapping. Forwarding is strictly
// best-effort — any forward failure falls back to solving locally, so a
// dead or draining owner degrades throughput and dedup, never availability.
// Forwarded requests carry the X-Partition-Internal header and are never
// re-forwarded, so transiently divergent membership views cannot form
// forwarding loops.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// InternalHeader marks a request as node-to-node traffic. Receivers treat
// the sender as the "peer" cache tier and never forward again (the hop
// guard: a request crosses at most one node boundary).
const InternalHeader = "X-Partition-Internal"

// TraceHeader carries distributed-trace context on node-to-node forwards,
// traceparent-style: "<32 hex trace-id>-<16 hex span-id>-<2 hex flags>".
// The receiver adopts the trace ID and parents its root span under the
// caller's span so the cluster renders one coherent tree per request. Only
// honored together with InternalHeader — external callers cannot inject
// trace context.
const TraceHeader = "X-Partition-Trace"

// SpansTrailer is the HTTP trailer on forwarded solve responses carrying
// the owner's span tree (base64 of the SpanNode JSON). A trailer — not a
// header — because the tree is only complete after the solve has run, and
// not a body extension because PRS1 frames must stay byte-identical whether
// or not a forward was traced.
const SpansTrailer = "X-Partition-Spans"

// Config describes one node's view of the cluster.
type Config struct {
	// Self is this node's own advertised address; it must appear in Peers.
	Self string
	// Peers lists every cluster member including Self, as host:port or
	// http(s)://host:port. All nodes must be configured with the same set
	// (order-insensitive) for ownership to agree.
	Peers []string
	// HealthInterval is the period of the background /healthz sweep started
	// by Start (default 2s).
	HealthInterval time.Duration
	// HealthTimeout bounds one peer health probe (default 1s).
	HealthTimeout time.Duration
	// Logger receives membership transitions; nil means slog.Default().
	Logger *slog.Logger
}

// PeerStatus is one peer's row in Status.
type PeerStatus struct {
	URL   string `json:"url"`
	Self  bool   `json:"self"`
	State string `json:"state"` // "alive" | "dead"
}

// ForwardStats counts forwarded solves by outcome. Hit/Miss report the
// owner's X-Cache answer for successful forwards; Errors counts forwards
// that failed outright (the caller then solved locally).
type ForwardStats struct {
	Hit    uint64 `json:"hit"`
	Miss   uint64 `json:"miss"`
	Errors uint64 `json:"errors"`
}

// Status is a point-in-time snapshot of the cluster from this node's view.
type Status struct {
	Self         string       `json:"self"`
	VirtualNodes int          `json:"virtualNodes"`
	Peers        []PeerStatus `json:"peers"`
	Alive        int          `json:"alive"`
	Forwards     ForwardStats `json:"forwards"`
}

// Cluster is one node's membership view plus the forwarding transport.
// Construct with New; optionally Start the health sweeper; Close releases
// it. All methods are safe for concurrent use.
type Cluster struct {
	peers    []string // canonical URLs, sorted — identical on every node
	self     int      // index of this node in peers
	interval time.Duration
	htimeout time.Duration
	client   *http.Client
	logger   *slog.Logger

	mu    sync.RWMutex
	alive []bool
	ring  ring

	fwdHit  atomic.Uint64
	fwdMiss atomic.Uint64
	fwdErr  atomic.Uint64

	done      chan struct{}
	wg        sync.WaitGroup
	startOnce sync.Once
	closeOnce sync.Once
}

// normalizePeer canonicalizes a peer address to scheme://host:port. Bare
// host:port gets http. The canonical form is what gets hashed onto the
// ring, so every node must resolve a given peer to the same string.
func normalizePeer(addr string) (string, error) {
	addr = strings.TrimSpace(addr)
	if addr == "" {
		return "", errors.New("empty peer address")
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	u, err := url.Parse(addr)
	if err != nil {
		return "", fmt.Errorf("bad peer address %q: %v", addr, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("peer address %q: scheme must be http or https", addr)
	}
	if u.Host == "" {
		return "", fmt.Errorf("peer address %q has no host", addr)
	}
	if (u.Path != "" && u.Path != "/") || u.RawQuery != "" || u.Fragment != "" {
		return "", fmt.Errorf("peer address %q must be scheme://host:port with no path", addr)
	}
	return u.Scheme + "://" + u.Host, nil
}

// New validates and canonicalizes the peer set and builds the node's
// cluster view, with every peer initially presumed alive (the optimistic
// start keeps a cold cluster forwarding immediately; the first health sweep
// or failed forward corrects it).
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Peers) == 0 {
		return nil, errors.New("cluster: no peers configured")
	}
	peers := make([]string, 0, len(cfg.Peers))
	seen := make(map[string]bool, len(cfg.Peers))
	for _, p := range cfg.Peers {
		cp, err := normalizePeer(p)
		if err != nil {
			return nil, fmt.Errorf("cluster: %v", err)
		}
		if seen[cp] {
			return nil, fmt.Errorf("cluster: duplicate peer %s", cp)
		}
		seen[cp] = true
		peers = append(peers, cp)
	}
	sort.Strings(peers)
	self, err := normalizePeer(cfg.Self)
	if err != nil {
		return nil, fmt.Errorf("cluster: self: %v", err)
	}
	selfIdx := sort.SearchStrings(peers, self)
	if selfIdx == len(peers) || peers[selfIdx] != self {
		return nil, fmt.Errorf("cluster: self %s is not in the peer list %v", self, peers)
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 2 * time.Second
	}
	if cfg.HealthTimeout <= 0 {
		cfg.HealthTimeout = time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	c := &Cluster{
		peers:    peers,
		self:     selfIdx,
		interval: cfg.HealthInterval,
		htimeout: cfg.HealthTimeout,
		client:   defaultClient(),
		logger:   cfg.Logger,
		alive:    make([]bool, len(peers)),
		done:     make(chan struct{}),
	}
	for i := range c.alive {
		c.alive[i] = true
	}
	c.rebuildLocked()
	return c, nil
}

// rebuildLocked recomputes the ring over the alive members. Callers hold
// c.mu (or, during New, exclusive access).
func (c *Cluster) rebuildLocked() {
	members := make([]int, 0, len(c.peers))
	for i, ok := range c.alive {
		if ok {
			members = append(members, i)
		}
	}
	c.ring = buildRing(c.peers, members, virtualNodes)
}

// Self returns this node's canonical address.
func (c *Cluster) Self() string { return c.peers[c.self] }

// Size returns the configured peer count, self included.
func (c *Cluster) Size() int { return len(c.peers) }

// Route returns the owning peer for a graph fingerprint under the current
// membership view. local is true when this node owns the fingerprint (or
// when every other peer is dead, in which case ownership degrades to
// solving locally rather than failing).
func (c *Cluster) Route(fp uint64) (peerURL string, local bool) {
	c.mu.RLock()
	owner := c.ring.owner(fp)
	c.mu.RUnlock()
	if owner < 0 || owner == c.self {
		return c.peers[c.self], true
	}
	return c.peers[owner], false
}

// setAlive records one peer's health-state, rebuilding the ring on a
// transition. Self never changes state. Reports whether the state changed.
func (c *Cluster) setAlive(i int, alive bool) bool {
	if i == c.self {
		return false
	}
	c.mu.Lock()
	changed := c.alive[i] != alive
	if changed {
		c.alive[i] = alive
		c.rebuildLocked()
	}
	c.mu.Unlock()
	if changed {
		state := "dead"
		if alive {
			state = "alive"
		}
		c.logger.Info("cluster peer state change", "peer", c.peers[i], "state", state)
	}
	return changed
}

// ReportFailure marks a peer dead after a failed forward — passive failure
// detection that works even when the health sweeper is not running. A later
// successful health check revives the peer.
func (c *Cluster) ReportFailure(peerURL string) {
	i := sort.SearchStrings(c.peers, peerURL)
	if i == len(c.peers) || c.peers[i] != peerURL {
		return
	}
	c.setAlive(i, false)
}

// Sweep health-checks every remote peer once, updating membership. Start
// runs this periodically; tests and callers without the background loop may
// invoke it directly.
func (c *Cluster) Sweep(ctx context.Context) {
	for i, u := range c.peers {
		if i == c.self {
			continue
		}
		c.setAlive(i, c.checkPeer(ctx, u))
	}
}

// Start launches the periodic health sweeper. Idempotent; pair with Close.
func (c *Cluster) Start() {
	c.startOnce.Do(func() {
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			t := time.NewTicker(c.interval)
			defer t.Stop()
			// No immediate sweep: peers start optimistically alive, and a
			// probe fired during a simultaneous fleet start would mark
			// still-binding peers dead for a whole interval. The first
			// ticked sweep catches genuinely dead peers soon enough, and
			// passive detection (ReportFailure) covers the gap.
			for {
				select {
				case <-c.done:
					return
				case <-t.C:
					c.Sweep(context.Background())
				}
			}
		}()
	})
}

// Close stops the health sweeper and idle-closes the transport. Idempotent.
func (c *Cluster) Close() {
	c.closeOnce.Do(func() {
		close(c.done)
		c.wg.Wait()
		c.client.CloseIdleConnections()
	})
}

// Status snapshots membership and forward counters.
func (c *Cluster) Status() Status {
	st := Status{
		Self:         c.peers[c.self],
		VirtualNodes: virtualNodes,
		Forwards: ForwardStats{
			Hit:    c.fwdHit.Load(),
			Miss:   c.fwdMiss.Load(),
			Errors: c.fwdErr.Load(),
		},
	}
	c.mu.RLock()
	st.Peers = make([]PeerStatus, len(c.peers))
	for i, u := range c.peers {
		state := "dead"
		if c.alive[i] {
			state = "alive"
			st.Alive++
		}
		st.Peers[i] = PeerStatus{URL: u, Self: i == c.self, State: state}
	}
	c.mu.RUnlock()
	return st
}
