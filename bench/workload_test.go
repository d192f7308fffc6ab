package main

import (
	"bytes"
	"testing"
)

func TestSeedDeterminism(t *testing.T) {
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			a := generate(s, 7, 40).digest()
			b := generate(s, 7, 40).digest()
			c := generate(s, 8, 40).digest()
			if !bytes.Equal(a, b) {
				t.Error("seed 7 produced two different op sequences")
			}
			if bytes.Equal(a, c) {
				t.Error("seeds 7 and 8 produced the same op sequence")
			}
		})
	}
}

func TestWorkloadShapes(t *testing.T) {
	const n = 400
	for _, s := range specs {
		w := generate(s, 3, n)
		if len(w.ops) != n {
			t.Errorf("%s: %d ops, want %d", s.name, len(w.ops), n)
		}
		c := countOps(w)
		switch s.name {
		case "json-hit":
			keys := map[string]bool{}
			for _, o := range w.ops {
				keys[o.items[0].key()] = true
			}
			if len(keys) > 32 || c.Repeats != n {
				t.Errorf("json-hit: %d keys, %d repeats", len(keys), c.Repeats)
			}
		case "bin-miss-path":
			if len(w.reused) != 0 {
				t.Errorf("bin-miss-path: %d keys sent twice", len(w.reused))
			}
		case "tree-routes":
			// Exactly 60/25/15 routes; 30% repeats, less the first op of
			// each route, which has nothing to repeat.
			if c.Solve != n*60/100 || c.Batch != n*25/100 || c.Job != n*15/100 || c.Repeats < n*28/100 || c.Repeats > n*30/100 {
				t.Errorf("tree-routes mix: %+v", c)
			}
		case "cluster-2node":
			// Steps of two ops, one to each node; a new key goes to both.
			fresh := 0
			for i := 0; i+1 < n; i += 2 {
				a, b := w.ops[i], w.ops[i+1]
				if a.node+b.node != 1 {
					t.Fatalf("step %d: nodes %d, %d", i/2, a.node, b.node)
				}
				if !a.repeat {
					fresh++
					if !b.repeat || a.items[0].key() != b.items[0].key() {
						t.Fatalf("step %d: a new key goes to one node only", i/2)
					}
				}
			}
			// Two new steps in three, less the unfinished last deck pass;
			// the first step is new even when its card says repeat.
			if d := fresh - n/3; d < 0 || d > 2 {
				t.Errorf("cluster-2node: %d new keys in %d ops, want a third", fresh, n)
			}
		}
	}
}
