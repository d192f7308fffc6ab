// Package sched is a discrete-event simulator of partitioned iterative
// execution on the shared-memory machine of package arch. It exists to
// validate the paper's premise end-to-end: partitions with lower cut
// bandwidth place less serialized demand on the shared interconnect and
// therefore finish iterative computations sooner.
//
// Execution model (the iterative/pipelined pattern of §1): the task graph
// has been partitioned into components, one per processor. Computation
// proceeds in rounds. In each round every processor computes for
// (component load / speed) time, then posts one message per incident cut
// edge to the interconnect; transfers are served FIFO by Config.Links
// identical channels (1 = shared bus; many = crossbar / multistage network,
// the other §1 shared-memory interconnects). A processor completes round r —
// and may begin round r+1 — once it has finished computing round r and has
// received round r's message on every incident cut edge. Message rounds are
// tracked per edge direction (channel), so a fast neighbour running ahead
// can never satisfy a wait with a later round's message.
package sched

import (
	"container/heap"
	"errors"
	"fmt"

	"repro/internal/arch"
	"repro/internal/graph"
)

// ErrBadConfig is returned for invalid simulation parameters.
var ErrBadConfig = errors.New("sched: bad configuration")

// Config describes one simulation run.
type Config struct {
	// Machine is the target multiprocessor.
	Machine *arch.Machine
	// Rounds is the number of iterations to simulate.
	Rounds int
	// Links is the number of independent interconnect channels, each of
	// Machine.BusBandwidth: 1 (the default when zero) models a shared bus;
	// a large value models a crossbar or multistage network where transfers
	// between distinct pairs never contend (§1 lists all three as
	// shared-memory interconnects).
	Links int
}

// Result reports the simulation outcome.
type Result struct {
	// Makespan is the completion time of the final round on the last
	// processor (including the final message exchange).
	Makespan float64
	// BusBusy is the aggregate transfer time across all links.
	BusBusy float64
	// BusUtilization is BusBusy / (Makespan × links), in [0, 1].
	BusUtilization float64
	// Messages is the number of point-to-point transfers performed.
	Messages int
	// MeanMessageLatency is the average time from message post to delivery.
	MeanMessageLatency float64
	// ComputeTime is the total processor-seconds spent computing.
	ComputeTime float64
}

// event is one simulation event: unit who finishing a compute (on item
// item, in a stream) or, when xfer is set, a transfer posted at posted
// landing on channel who.
type event struct {
	at     float64
	seq    int // posting order; breaks time ties deterministically
	xfer   bool
	who    int
	item   int
	posted float64
}

type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}

// channel is one directed message route: each transfer on it carries size
// weight units to unit to.
type channel struct {
	to   int
	size float64
}

// sim is the discrete-event core both execution patterns share: one event
// queue, and the interconnect serving posted transfers FIFO on links
// identical channels of bandwidth bw.
type sim struct {
	q     eventQueue
	seq   int
	links int
	// busy counts in-flight transfers; an explicit counter rather than time
	// comparisons so that zero-duration transfers cannot double-start a link.
	busy      int
	bw        float64
	chans     []channel
	delivered []int   // transfers landed per channel
	fifo      []event // posted transfers waiting for a link
	busBusy   float64
	messages  int
	latency   float64 // summed post-to-delivery time
}

// checkMachine checks cfg.Machine.
func (cfg Config) checkMachine() error {
	if cfg.Machine == nil {
		return fmt.Errorf("nil machine: %w", ErrBadConfig)
	}
	return cfg.Machine.Validate()
}

// linkCount returns cfg.Links, reading zero as one shared bus.
func (cfg Config) linkCount() (int, error) {
	if cfg.Links < 0 {
		return 0, fmt.Errorf("links = %d: %w", cfg.Links, ErrBadConfig)
	}
	return max(cfg.Links, 1), nil
}

// newSim maps units components onto cfg.Machine and returns a core whose
// transfers run over chans.
func newSim(cfg Config, links, units int, chans []channel) (*sim, error) {
	if _, err := arch.MapComponents(cfg.Machine, units); err != nil {
		return nil, err
	}
	return &sim{links: links, bw: cfg.Machine.BusBandwidth, chans: chans, delivered: make([]int, len(chans))}, nil
}

func (s *sim) post(ev event) {
	ev.seq = s.seq
	s.seq++
	heap.Push(&s.q, ev)
}

// send queues one transfer on channel ch.
func (s *sim) send(ch int, now float64) {
	s.fifo = append(s.fifo, event{xfer: true, who: ch, posted: now})
}

func (s *sim) startLinks(now float64) {
	for s.busy < s.links && len(s.fifo) > 0 {
		ev := s.fifo[0]
		s.fifo = s.fifo[1:]
		s.busy++
		d := s.chans[ev.who].size / s.bw
		s.busBusy += d
		ev.at = now + d
		s.post(ev)
	}
}

// run drains the event queue. A finished compute goes to finish, which may
// send transfers; then idle links start, and wake(unit) may post the unit's
// next compute. A landed transfer wakes its destination before the freed
// link starts the next transfer.
func (s *sim) run(finish func(ev event), wake func(c int, now float64)) {
	for len(s.q) > 0 {
		ev := heap.Pop(&s.q).(event)
		if ev.xfer {
			s.busy--
			s.messages++
			s.latency += ev.at - ev.posted
			s.delivered[ev.who]++
			wake(s.chans[ev.who].to, ev.at)
			s.startLinks(ev.at)
		} else {
			finish(ev)
			s.startLinks(ev.at)
			wake(ev.who, ev.at)
		}
	}
}

// SimulateTree runs the model on a tree task graph with the given cut.
func SimulateTree(cfg Config, t *graph.Tree, cut []int) (*Result, error) {
	if err := cfg.checkMachine(); err != nil {
		return nil, err
	}
	if cfg.Rounds <= 0 {
		return nil, fmt.Errorf("rounds = %d: %w", cfg.Rounds, ErrBadConfig)
	}
	links, err := cfg.linkCount()
	if err != nil {
		return nil, err
	}
	comps, err := t.Components(cut)
	if err != nil {
		return nil, err
	}
	nc := len(comps)
	comp := make([]int, t.Len())
	loads := make([]float64, nc)
	for ci, vs := range comps {
		for _, v := range vs {
			comp[v] = ci
			loads[ci] += t.NodeW[v]
		}
	}
	// Directed channels: one per (cut edge, direction). send[c] are the
	// channels c posts to after computing; recv[c] are the channels c must
	// drain to finish a round.
	chans := make([]channel, 0, 2*len(cut))
	send := make([][]int, nc)
	recv := make([][]int, nc)
	for _, e := range cut {
		u, v := comp[t.Edges[e].U], comp[t.Edges[e].V]
		w := t.Edges[e].W
		send[u] = append(send[u], len(chans))
		recv[v] = append(recv[v], len(chans))
		chans = append(chans, channel{to: v, size: w})
		send[v] = append(send[v], len(chans))
		recv[u] = append(recv[u], len(chans))
		chans = append(chans, channel{to: u, size: w})
	}
	s, err := newSim(cfg, links, nc, chans)
	if err != nil {
		return nil, err
	}
	speed := cfg.Machine.Speed
	round := make([]int, nc)     // round currently being executed
	computed := make([]bool, nc) // current round's compute finished
	done := make([]bool, nc)
	res := &Result{}
	compute := func(c int, now float64) {
		d := loads[c] / speed
		res.ComputeTime += d
		s.post(event{at: now + d, who: c})
	}
	for c := range nc {
		compute(c, 0)
	}
	s.run(func(ev event) {
		computed[ev.who] = true
		for _, ch := range send[ev.who] {
			s.send(ch, ev.at)
		}
	}, func(c int, now float64) {
		// c completes its round once it has computed it and received the
		// round's message on every incident channel.
		if done[c] || !computed[c] {
			return
		}
		for _, ch := range recv[c] {
			if s.delivered[ch] <= round[c] {
				return
			}
		}
		if round[c]+1 >= cfg.Rounds {
			done[c] = true
			res.Makespan = max(res.Makespan, now)
			return
		}
		round[c]++
		computed[c] = false
		compute(c, now)
	})
	res.BusBusy, res.Messages = s.busBusy, s.messages
	if res.Messages > 0 {
		res.MeanMessageLatency = s.latency / float64(res.Messages)
	}
	if res.Makespan > 0 {
		res.BusUtilization = res.BusBusy / (res.Makespan * float64(links))
	}
	return res, nil
}

// SimulatePath runs the model on a linear task graph with the given cut.
func SimulatePath(cfg Config, p *graph.Path, cut []int) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return SimulateTree(cfg, p.AsTree(), cut)
}
