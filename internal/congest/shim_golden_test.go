package congest

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// pinNode drives the golden pins of the fault pipeline. Each round it logs
// its arrivals and sends a registered FLOOD-MIN frame (so the shim's
// framing check passes honest traffic) to the neighbours a fixed rule
// selects, leaving the other links silent that round — which gives a
// byzantine node silent links to inject on. It draws from its private
// stream every round and survives crash-recovery schedules.
type pinNode struct {
	env    *Env
	stopAt int
	log    []string
	buf    []byte
}

func (p *pinNode) Init(env *Env) { p.env = env }

func (p *pinNode) Recover() { p.log = append(p.log, "*") }

func (p *pinNode) Round(r int, inbox []Message) bool {
	for _, m := range inbox {
		p.log = append(p.log, fmt.Sprintf("%d:%d:%x", r, m.From, m.Payload))
	}
	if r >= p.stopAt {
		return true
	}
	v := int64(p.env.Rand().Intn(1 << 20))
	p.buf = EncodeKindVarint(p.buf, floodValue, v)
	for _, to := range p.env.Neighbors() {
		if (r+to+p.env.ID())%3 != 0 {
			p.env.Send(to, p.buf)
		}
	}
	return false
}

// pinRun executes the stress graph under one fault schedule with the
// reliable shim on and returns the stats plus an FNV-64a digest of every
// node's receive transcript.
func pinRun(t *testing.T, f Faults, budget int, dense bool) (Stats, uint64) {
	t.Helper()
	g := stressGraph(t)
	nodes := make([]Node, g.N())
	pins := make([]*pinNode, g.N())
	for i := range nodes {
		pins[i] = &pinNode{stopAt: 8 + i/4}
		nodes[i] = pins[i]
	}
	stats, err := Run(g, nodes, Config{
		Seed:     2024,
		Dense:    dense,
		Faults:   f,
		Reliable: Reliable{RetryBudget: budget},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for i, p := range pins {
		fmt.Fprintf(h, "%d=%v;", i, p.log)
	}
	return stats, h.Sum64()
}

// TestReliableShimGoldenPin pins the reliable shim and the fault pipeline
// around it against their own recorded past: for four schedules on one
// fixed graph, the full Stats and a transcript digest must equal recorded
// values, under both schedulers. The other shim tests compare the frontier
// scheduler against the dense reference, which share the shim, so only a
// pin like this catches a change in the shim's own behaviour or in the
// order of its fault-stream draws. A deliberate behaviour change must
// re-record the values and say why.
func TestReliableShimGoldenPin(t *testing.T) {
	cases := []struct {
		name   string
		faults Faults
		budget int
		stats  Stats
		digest uint64
	}{
		{
			name:   "drop",
			faults: Faults{DropProb: 0.3},
			budget: 3,
			stats: Stats{Rounds: 14, Messages: 449, Bits: 14360, MaxMessageBits: 32, Dropped: 396,
				Retransmits: 350, RetransmitBits: 11200, Acks: 525, AckBits: 8400,
				LiveNodeRounds: 276, Senders: 252},
			digest: 0x50b11c57c197acc3,
		},
		{
			name:   "drop+delay+dup",
			faults: Faults{DropProb: 0.2, DelayProb: 0.25, MaxDelay: 3, DupProb: 0.3},
			budget: 3,
			stats: Stats{Rounds: 14, Messages: 449, Bits: 14360, MaxMessageBits: 32, Dropped: 259,
				Delayed: 144, Retransmits: 279, RetransmitBits: 8912, Acks: 552, AckBits: 8832,
				LiveNodeRounds: 276, Senders: 252},
			digest: 0xb3e37fa990fbc86f,
		},
		{
			name: "crash+recover",
			faults: Faults{
				DropProb:       0.2,
				CrashAtRound:   map[int]int{0: 3, 7: 2, 13: 5},
				RecoverAtRound: map[int]int{0: 6, 7: 4},
			},
			budget: 4,
			stats: Stats{Rounds: 14, Messages: 420, Bits: 13432, MaxMessageBits: 32, Dropped: 239,
				Crashed: 3, Recovered: 2, Retransmits: 263, RetransmitBits: 8408, Acks: 466, AckBits: 7456,
				LiveNodeRounds: 264, Senders: 241},
			digest: 0x1455d77204e0f365,
		},
		{
			name: "corrupt+byzantine",
			faults: Faults{
				CorruptProb:        0.3,
				ByzantineFromRound: map[int]int{4: 1, 17: 0},
			},
			budget: 2,
			stats: Stats{Rounds: 14, Messages: 449, Bits: 14360, MaxMessageBits: 32,
				Retransmits: 111, RetransmitBits: 3200, Acks: 427, AckBits: 6832,
				Corrupted: 184, Forged: 52, Rejected: 145, LinkDowns: 8,
				LiveNodeRounds: 276, Senders: 252},
			digest: 0xca2464382ad72a54,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, dense := range []bool{false, true} {
				stats, digest := pinRun(t, c.faults, c.budget, dense)
				if stats != c.stats {
					t.Errorf("dense=%v stats:\n got %#v\nwant %#v", dense, stats, c.stats)
				}
				if digest != c.digest {
					t.Errorf("dense=%v transcript digest = %#x, want %#x", dense, digest, c.digest)
				}
			}
		})
	}
}
