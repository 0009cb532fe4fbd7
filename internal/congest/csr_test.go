package congest

import (
	"math/rand"
	"testing"
)

// TestCSRMatchesNaiveBuilder is the CSR acceptance property: on random
// multigraph edge sequences (duplicates included), the frozen CSR graph
// answers Neighbors, Degree, EdgeCount, HasEdge, and NeighborIndex exactly
// like a naive slice-of-slices builder with dedup-on-insert — including
// per-row neighbour order, which protocols observe through Broadcast.
func TestCSRMatchesNaiveBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(40)
		attempts := rng.Intn(4 * n)
		g := NewGraph(n)
		naive := make([][]int, n)
		edges := 0
		addNaive := func(u, v int) {
			for _, w := range naive[u] {
				if w == v {
					return
				}
			}
			naive[u] = append(naive[u], v)
		}
		for k := 0; k < attempts; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				if err := g.AddEdge(u, v); err == nil {
					t.Fatal("self-loop accepted")
				}
				continue
			}
			if err := g.AddEdge(u, v); err != nil {
				t.Fatalf("AddEdge(%d,%d): %v", u, v, err)
			}
			before := len(naive[u])
			addNaive(u, v)
			if len(naive[u]) > before {
				addNaive(v, u)
				edges++
			}
		}
		if got := g.EdgeCount(); got != edges {
			t.Fatalf("trial %d: EdgeCount = %d, want %d", trial, got, edges)
		}
		for u := 0; u < n; u++ {
			if g.Degree(u) != len(naive[u]) {
				t.Fatalf("trial %d: Degree(%d) = %d, want %d", trial, u, g.Degree(u), len(naive[u]))
			}
			row := g.Neighbors(u)
			if len(row) != len(naive[u]) {
				t.Fatalf("trial %d: Neighbors(%d) has %d entries, want %d", trial, u, len(row), len(naive[u]))
			}
			seenPos := make(map[int]bool, len(row))
			for k, v := range row {
				if v != naive[u][k] {
					t.Fatalf("trial %d: Neighbors(%d)[%d] = %d, want %d (insertion order must survive the freeze)", trial, u, k, v, naive[u][k])
				}
				pos, ok := g.NeighborIndex(u, v)
				if !ok || pos < 0 || pos >= len(row) || seenPos[pos] {
					t.Fatalf("trial %d: NeighborIndex(%d,%d) = (%d,%v), want a fresh index in [0,%d)", trial, u, v, pos, ok, len(row))
				}
				seenPos[pos] = true
				if !g.HasEdge(u, v) {
					t.Fatalf("trial %d: HasEdge(%d,%d) = false for present edge", trial, u, v)
				}
			}
			for v := 0; v < n; v++ {
				has := false
				for _, w := range naive[u] {
					if w == v {
						has = true
						break
					}
				}
				if g.HasEdge(u, v) != has {
					t.Fatalf("trial %d: HasEdge(%d,%d) = %v, want %v", trial, u, v, !has, has)
				}
			}
		}
	}
}

// hashNode folds everything it observes — round numbers, senders, payload
// bytes — into an FNV-64 digest and broadcasts two bytes derived from the
// running digest each round, so any divergence anywhere in the execution
// cascades into every digest. Used by the large determinism test below.
type hashNode struct {
	env    *Env
	digest uint64
	limit  int
	buf    [2]byte
}

func (h *hashNode) Init(env *Env) {
	h.env = env
	h.digest = 1469598103934665603 * uint64(env.ID()+1)
}

func (h *hashNode) Round(r int, inbox []Message) bool {
	d := fnvMix(h.digest, h.digest)
	d = fnvMix(d, uint64(r))
	for _, msg := range inbox {
		d = fnvMix(d, uint64(msg.From))
		for _, b := range msg.Payload {
			d = (d ^ uint64(b)) * 1099511628211
		}
	}
	h.digest = d
	if r >= h.limit {
		return true
	}
	h.buf[0] = byte(h.digest)
	h.buf[1] = byte(h.digest >> 8)
	h.env.Broadcast(h.buf[:])
	return false
}

// fnvMix folds one 64-bit word into an FNV-1a style digest, byte by byte.
func fnvMix(d, w uint64) uint64 {
	for k := 0; k < 8; k++ {
		d = (d ^ (w & 0xff)) * 1099511628211
		w >>= 8
	}
	return d
}

// TestCSRLargeDeterminism runs a 10^5-node CSR-built sparse graph under Run
// and as RunShard spans over a ChanNetwork at several shard counts and
// demands byte-identical executions: every node's observation digest must
// match exactly (invariant I5 at the scale the million-node layout
// targets).
func TestCSRLargeDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("large determinism matrix in -short mode")
	}
	const n = 100_000
	// Sparse deterministic topology: a ring for connectivity plus
	// pseudo-random chords, avg degree about 6. One frozen graph serves all
	// runs — Run never mutates a frozen graph.
	g := NewGraph(n)
	for u := 0; u < n; u++ {
		if err := g.AddEdge(u, (u+1)%n); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(99))
	for k := 0; k < 2*n; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			_ = g.AddEdge(u, v) // duplicates fold at Finalize
		}
	}
	run := func(shards int) []uint64 {
		nodes := make([]Node, n)
		store := make([]hashNode, n)
		for i := range store {
			store[i].limit = 4
			nodes[i] = &store[i]
		}
		var err error
		if shards == 0 {
			_, err = Run(g, nodes, Config{Seed: 5})
		} else {
			_, err = runFleet(t, g, nodes, Config{Seed: 5}, shards)
		}
		if err != nil {
			t.Fatal(err)
		}
		out := make([]uint64, n)
		for i := range store {
			out[i] = store[i].digest
		}
		return out
	}
	want := run(0)
	// Shard counts 1 and other schedules are covered at small n by the
	// existing equivalence matrices; at this scale two counts suffice.
	for _, shards := range []int{2, 8} {
		got := run(shards)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d: node %d digest %x != sequential %x", shards, i, got[i], want[i])
			}
		}
	}
}
