package congest

import "testing"

// lossyAllocBound is the allocation gate on the fault pipeline: heap
// allocations per protocol message of a whole lossy chatter run, graph
// build and engine setup included. Measured at 2.040 with the reliable
// shim's link state in flat per-edge slots: one frame and one payload copy
// per message, plus setup and amortized slice growth. The bound adds about
// 10% headroom, so one extra allocation on even a quarter of the messages
// trips it.
const lossyAllocBound = 2.25

// TestLossyPathAllocsPerMessage bounds the heap allocations the fault
// pipeline and reliable shim spend per protocol message. Every node of a
// fixed 256-node circulant graph (degree 6) broadcasts every round for 40
// rounds under 10% loss with a retry budget of 4, so the shim's per-frame
// path dominates the count.
func TestLossyPathAllocsPerMessage(t *testing.T) {
	const n, rounds = 256, 40
	var msgs int64
	allocs := testing.AllocsPerRun(3, func() {
		g := NewGraph(n)
		for i := 0; i < n; i++ {
			for _, d := range []int{1, 3, 7} {
				if err := g.AddEdge(i, (i+d)%n); err != nil {
					t.Fatal(err)
				}
			}
		}
		nodes := make([]Node, n)
		for i := range nodes {
			nodes[i] = &chatterNode{rounds: rounds}
		}
		stats, err := Run(g, nodes, Config{
			Seed:     5,
			Faults:   Faults{DropProb: 0.1},
			Reliable: Reliable{RetryBudget: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Retransmits == 0 {
			t.Fatal("no retransmissions: the run does not exercise the shim")
		}
		msgs = stats.Messages
	})
	perMsg := allocs / float64(msgs)
	t.Logf("%.0f allocs over %d messages: %.3f allocs/message", allocs, msgs, perMsg)
	if perMsg > lossyAllocBound {
		t.Fatalf("%.3f allocs per message on the lossy path, bound %.2f", perMsg, lossyAllocBound)
	}
}
