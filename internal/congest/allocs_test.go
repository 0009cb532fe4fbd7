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

// broadcastAllocBound is the allocation gate on the fault-free send and
// receive buffers: heap allocations per node of a whole broadcast run,
// graph build and engine setup included. Measured at 1.123 with one
// kernel-wide send buffer and every inbox allocated once at its node's
// degree: the inbox, plus setup and the send buffer's growth amortized
// over the nodes. Per-node send buffers and inboxes grown by doubling
// measured 10.451. The bound adds about 10% headroom, so doubling even the
// 16-entry leaf inboxes alone trips it.
const broadcastAllocBound = 1.25

// TestBroadcastPathAllocs bounds the heap allocations of a fault-free run
// in which high-degree nodes broadcast every round: 16 hubs joined to all
// of 512 leaves (degree 512 and 16), every node broadcasting for 30
// rounds, so each round stages and delivers 16k messages.
func TestBroadcastPathAllocs(t *testing.T) {
	const hubs, leaves, rounds = 16, 512, 30
	const n = hubs + leaves
	allocs := testing.AllocsPerRun(3, func() {
		g, err := Bipartite(hubs, leaves, func(yield func(i, j int) bool) {
			for i := 0; i < hubs; i++ {
				for j := 0; j < leaves; j++ {
					if !yield(i, j) {
						return
					}
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		store := make([]chatterNode, n)
		nodes := make([]Node, n)
		for i := range nodes {
			store[i].rounds = rounds
			nodes[i] = &store[i]
		}
		stats, err := Run(g, nodes, Config{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(2 * hubs * leaves * rounds); stats.Messages != want {
			t.Fatalf("%d messages, want %d", stats.Messages, want)
		}
	})
	perNode := allocs / n
	t.Logf("%.0f allocs over %d nodes: %.3f allocs/node", allocs, n, perNode)
	if perNode > broadcastAllocBound {
		t.Fatalf("%.3f allocs per node on the broadcast path, bound %.2f", perNode, broadcastAllocBound)
	}
}
