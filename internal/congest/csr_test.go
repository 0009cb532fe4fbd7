package congest

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// naiveGraph is the reference builder the CSR graph is checked against: a
// slice of rows with dedup-on-insert.
type naiveGraph struct {
	rows  [][]int
	edges int
}

// add inserts the undirected edge u-v unless it is already present and
// reports whether it was new.
func (ng *naiveGraph) add(u, v int) bool {
	if slices.Contains(ng.rows[u], v) {
		return false
	}
	ng.rows[u] = append(ng.rows[u], v)
	ng.rows[v] = append(ng.rows[v], u)
	ng.edges++
	return true
}

// checkAgainstNaive asserts that the frozen g answers Neighbors, Degree,
// EdgeCount, HasEdge and NeighborIndex exactly like the reference. In
// particular NeighborIndex(u, v) must be v's rank among u's neighbours in
// ascending id order: the reliable shim's directed-edge slots and the
// positions Env.Send stages both depend on that.
func checkAgainstNaive(t *testing.T, trial int, g *Graph, ng *naiveGraph) {
	t.Helper()
	n := len(ng.rows)
	if got := g.EdgeCount(); got != ng.edges {
		t.Fatalf("trial %d: EdgeCount = %d, want %d", trial, got, ng.edges)
	}
	for u := 0; u < n; u++ {
		want := ng.rows[u]
		if g.Degree(u) != len(want) {
			t.Fatalf("trial %d: Degree(%d) = %d, want %d", trial, u, g.Degree(u), len(want))
		}
		row := g.Neighbors(u)
		if len(row) != len(want) {
			t.Fatalf("trial %d: Neighbors(%d) has %d entries, want %d", trial, u, len(row), len(want))
		}
		ascending := slices.Clone(want)
		slices.Sort(ascending)
		for k, v := range row {
			if v != want[k] {
				t.Fatalf("trial %d: Neighbors(%d)[%d] = %d, want %d (insertion order must survive the freeze)", trial, u, k, v, want[k])
			}
			rank, _ := slices.BinarySearch(ascending, v)
			if pos, ok := g.NeighborIndex(u, v); !ok || pos != rank {
				t.Fatalf("trial %d: NeighborIndex(%d,%d) = (%d,%v), want (%d,true): the rank among the ascending neighbours", trial, u, v, pos, ok, rank)
			}
			if !g.HasEdge(u, v) {
				t.Fatalf("trial %d: HasEdge(%d,%d) = false for present edge", trial, u, v)
			}
		}
		for v := 0; v < n; v++ {
			if has := slices.Contains(want, v); g.HasEdge(u, v) != has {
				t.Fatalf("trial %d: HasEdge(%d,%d) = %v, want %v", trial, u, v, !has, has)
			}
		}
	}
}

// TestCSRMatchesNaiveBuilder is the CSR acceptance property: on random
// multigraph edge sequences (duplicates included), the frozen CSR graph
// answers every adjacency query exactly like a naive slice-of-slices
// builder with dedup-on-insert — including per-row neighbour order, which
// protocols observe through Broadcast, and the sorted-row positions
// NeighborIndex hands out.
func TestCSRMatchesNaiveBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(40)
		attempts := rng.Intn(4 * n)
		g := NewGraph(n)
		ng := &naiveGraph{rows: make([][]int, n)}
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
			ng.add(u, v)
		}
		checkAgainstNaive(t, trial, g, ng)
	}
}

// TestBipartiteMatchesNaiveBuilder runs the same property on graphs built
// by Bipartite, which reads its pair sequence twice instead of keeping a
// pending list: duplicate-free random sequences must freeze to exactly the
// reference rows, and a sequence with a repeated pair must fail with the
// duplicate-edge error.
func TestBipartiteMatchesNaiveBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		m, nc := 1+rng.Intn(12), 1+rng.Intn(30)
		ng := &naiveGraph{rows: make([][]int, m+nc)}
		var pairs [][2]int
		for k := rng.Intn(3 * (m + nc)); k > 0; k-- {
			i, j := rng.Intn(m), rng.Intn(nc)
			if ng.add(i, m+j) {
				pairs = append(pairs, [2]int{i, j})
			}
		}
		seq := func(yield func(i, j int) bool) {
			for _, p := range pairs {
				if !yield(p[0], p[1]) {
					return
				}
			}
		}
		g, err := Bipartite(m, nc, seq)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if g.N() != m+nc {
			t.Fatalf("trial %d: N = %d, want %d", trial, g.N(), m+nc)
		}
		checkAgainstNaive(t, trial, g, ng)
		if len(pairs) == 0 {
			continue
		}
		dup := pairs[rng.Intn(len(pairs))]
		pairs = slices.Insert(pairs, rng.Intn(len(pairs)+1), dup)
		if _, err := Bipartite(m, nc, seq); err == nil || !strings.Contains(err.Error(), "duplicate edge") {
			t.Fatalf("trial %d: repeated pair %v: err = %v, want a duplicate-edge error", trial, dup, err)
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
