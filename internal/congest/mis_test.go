package congest

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func checkMIS(t *testing.T, g *Graph, mis []bool) {
	t.Helper()
	// Independence: no two adjacent members.
	for u := 0; u < g.N(); u++ {
		if !mis[u] {
			continue
		}
		for _, v := range g.Neighbors(u) {
			if mis[v] {
				t.Fatalf("adjacent members %d and %d", u, v)
			}
		}
	}
	// Maximality: every non-member has a member neighbour.
	for u := 0; u < g.N(); u++ {
		if mis[u] {
			continue
		}
		covered := false
		for _, v := range g.Neighbors(u) {
			if mis[v] {
				covered = true
				break
			}
		}
		if !covered {
			t.Fatalf("vertex %d neither in MIS nor dominated", u)
		}
	}
}

func TestMISPath(t *testing.T) {
	g := mustGraph(t, 6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}})
	mis, stats, err := MaximalIndependentSet(g, Config{Seed: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkMIS(t, g, mis)
	if stats.Rounds == 0 {
		t.Fatal("no rounds recorded")
	}
}

func TestMISClique(t *testing.T) {
	const n = 8
	g := NewGraph(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if err := g.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	mis, _, err := MaximalIndependentSet(g, Config{Seed: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkMIS(t, g, mis)
	members := 0
	for _, m := range mis {
		if m {
			members++
		}
	}
	if members != 1 {
		t.Fatalf("clique MIS has %d members, want 1", members)
	}
}

func TestMISEdgeless(t *testing.T) {
	g := NewGraph(5)
	mis, _, err := MaximalIndependentSet(g, Config{Seed: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range mis {
		if !m {
			t.Fatalf("isolated vertex %d not in MIS", i)
		}
	}
}

// TestMISRandomGraphs property-tests independence + maximality over random
// graphs and seeds.
func TestMISRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(30) + 1
		g := NewGraph(n)
		for e := 0; e < rng.Intn(3*n+1); e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				_ = g.AddEdge(u, v)
			}
		}
		mis, _, err := MaximalIndependentSet(g, Config{Seed: seed}, 0)
		if err != nil {
			return false
		}
		for u := 0; u < n; u++ {
			if mis[u] {
				for _, v := range g.Neighbors(u) {
					if mis[v] {
						return false
					}
				}
				continue
			}
			covered := false
			for _, v := range g.Neighbors(u) {
				if mis[v] {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestMISParallelEquivalence: Luby's MIS run as concurrent RunShard spans
// over a ChanNetwork, at shard counts 1, 2 and 8, reproduces
// MaximalIndependentSet's membership and Stats.
func TestMISParallelEquivalence(t *testing.T) {
	g := mustGraph(t, 7, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 0}, {0, 3}})
	a, sa, err := MaximalIndependentSet(g, Config{Seed: 9}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 8} {
		nodes := make([]Node, g.N())
		lubys := make([]*lubyNode, g.N())
		for i := range nodes {
			lubys[i] = &lubyNode{}
			nodes[i] = lubys[i]
		}
		sb, err := runFleet(t, g, nodes, Config{Seed: 9}, k)
		if err != nil {
			t.Fatal(err)
		}
		if sa != sb {
			t.Fatalf("k=%d stats diverged: %+v vs %+v", k, sa, sb)
		}
		for i := range a {
			if !lubys[i].decided || a[i] != lubys[i].inMIS {
				t.Fatalf("k=%d membership diverged at %d", k, i)
			}
		}
	}
}

func TestMISRespectsBitBudget(t *testing.T) {
	g := mustGraph(t, 10, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 8}, {8, 9}, {9, 0}})
	mis, stats, err := MaximalIndependentSet(g, Config{Seed: 4, BitLimit: SuggestedBitLimit(10)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkMIS(t, g, mis)
	if stats.MaxMessageBits > SuggestedBitLimit(10) {
		t.Fatalf("payload %d bits over budget", stats.MaxMessageBits)
	}
}
