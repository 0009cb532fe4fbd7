package core

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"dfl/internal/fl"
)

// TestFacilityIndexMatchesSort checks the id-sorted client index that
// newFacilityNodes builds by transposing through the client side against a
// sort-based reference: for every facility, nodeSorted must list its
// client node ids in ascending order and posAt the cost-order edge
// position of each. The random instances mix equal-cost ties (which put
// cost order and id order at odds), degree-1 clients and facilities of
// very uneven degree.
func TestFacilityIndexMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		m, nc := 1+rng.Intn(12), 1+rng.Intn(60)
		fcost := make([]int64, m)
		for i := range fcost {
			fcost[i] = 1 + rng.Int63n(50)
		}
		var edges []fl.RawEdge
		for j := 0; j < nc; j++ {
			deg := 1
			if rng.Intn(3) > 0 {
				deg = 1 + rng.Intn(m)
			}
			seen := make([]bool, m)
			for k := 0; k < deg; k++ {
				// Skewed draw: low facility ids collect most clients.
				i := rng.Intn(1 + rng.Intn(m))
				if seen[i] {
					continue
				}
				seen[i] = true
				edges = append(edges, fl.RawEdge{Facility: i, Client: j, Cost: 1 + rng.Int63n(3)})
			}
		}
		inst, err := fl.New("index", fcost, nc, edges)
		if err != nil {
			t.Fatal(err)
		}
		facs := newFacilityNodes(inst, Config{K: 1, Slack: 1}, Derived{})
		for i, f := range facs {
			type pair struct{ node, pos int32 }
			var want []pair
			for p, ed := range inst.FacilityEdges(i) {
				want = append(want, pair{int32(m + ed.To), int32(p)})
			}
			slices.SortFunc(want, func(a, b pair) int { return cmp.Compare(a.node, b.node) })
			if len(f.nodeSorted) != len(want) || len(f.posAt) != len(want) {
				t.Fatalf("trial %d facility %d: index has %d/%d entries, want %d", trial, i, len(f.nodeSorted), len(f.posAt), len(want))
			}
			for k, w := range want {
				if f.nodeSorted[k] != w.node || f.posAt[k] != w.pos {
					t.Fatalf("trial %d facility %d entry %d: (node %d, pos %d), want (node %d, pos %d)", trial, i, k, f.nodeSorted[k], f.posAt[k], w.node, w.pos)
				}
				if got, ok := f.edgePos(int(w.node)); !ok || got != int(w.pos) || f.edgeNode[w.pos] != w.node {
					t.Fatalf("trial %d facility %d: edgePos(%d) = (%d,%v), want (%d,true)", trial, i, w.node, got, ok, w.pos)
				}
			}
		}
	}
}
