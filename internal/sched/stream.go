package sched

import (
	"fmt"

	"repro/internal/graph"
)

// This file simulates the pipelined execution pattern of §1/§3: a stream of
// problem instances fed through a partitioned task chain ("a sequence of
// such problems (possibly with different input parameters) can be 'fed' to
// the pipeline and keep all stages busy"). Each component of the partition
// is one pipeline stage on its own processor; an item visits the stages in
// order, paying the component's full compute load at each stage and one
// interconnect transfer per crossed cut edge. The steady-state rate this
// simulator measures is what pipeline.Plan's Throughput field predicts
// analytically; tests tie the two together.

// StreamResult reports a pipelined-stream simulation.
type StreamResult struct {
	// Makespan is when the last item leaves the last stage.
	Makespan float64
	// FirstItemLatency is when item 0 leaves the last stage.
	FirstItemLatency float64
	// Throughput is the measured steady-state rate: (items−1) / (time
	// between the first and last item completing), or items/Makespan for a
	// single item.
	Throughput float64
	// BusBusy is the aggregate transfer time.
	BusBusy float64
	// Messages is the number of transfers performed.
	Messages int
}

// SimulatePipelineStream pushes the given number of items through the
// partitioned chain.
func SimulatePipelineStream(cfg Config, p *graph.Path, cut []int, items int) (*StreamResult, error) {
	if err := cfg.checkMachine(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if items <= 0 {
		return nil, fmt.Errorf("items = %d: %w", items, ErrBadConfig)
	}
	links, err := cfg.linkCount()
	if err != nil {
		return nil, err
	}
	ws, err := p.ComponentWeights(cut)
	if err != nil {
		return nil, err
	}
	nc := len(ws)
	// Channel c carries items from stage c over cut edge c to stage c+1
	// (stages are in chain order).
	chans := make([]channel, len(cut))
	for i, e := range cut {
		chans[i] = channel{to: i + 1, size: p.EdgeW[e]}
	}
	s, err := newSim(cfg, links, nc, chans)
	if err != nil {
		return nil, err
	}
	speed := cfg.Machine.Speed
	next := make([]int, nc) // next item each stage processes
	busy := make([]bool, nc)
	res := &StreamResult{}
	// tryStart starts stage c on its next item if c is idle and the item has
	// arrived (stage 0 holds every item from the start).
	tryStart := func(c int, now float64) {
		arrived := items
		if c > 0 {
			arrived = s.delivered[c-1]
		}
		if busy[c] || next[c] >= arrived {
			return
		}
		busy[c] = true
		d := ws[c] / speed
		s.post(event{at: now + d, who: c, item: next[c]})
		next[c]++
	}
	tryStart(0, 0)
	s.run(func(ev event) {
		c := ev.who
		busy[c] = false
		if c < nc-1 {
			s.send(c, ev.at)
			return
		}
		if ev.item == 0 {
			res.FirstItemLatency = ev.at
		}
		if ev.item == items-1 {
			res.Makespan = ev.at
		}
	}, tryStart)
	res.BusBusy, res.Messages = s.busBusy, s.messages
	if items > 1 && res.Makespan > res.FirstItemLatency {
		res.Throughput = float64(items-1) / (res.Makespan - res.FirstItemLatency)
	} else if res.Makespan > 0 {
		res.Throughput = float64(items) / res.Makespan
	}
	return res, nil
}
