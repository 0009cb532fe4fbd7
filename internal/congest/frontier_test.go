package congest

import (
	"fmt"
	"hash/fnv"
	"sync"
	"testing"
)

// drowsyNode exercises the frontier scheduler's dormancy path while
// honoring the SleepUntil contract. It acts every fifth round — drawing
// from its private stream and messaging every neighbour — and declares the
// rounds in between no-ops. A delivery on a declared round wakes it: it
// echoes 0xEE at the senders' neighbours unless the round's traffic was
// itself only echoes. On an empty inbox the in-between rounds change no
// state and draw nothing, which is exactly what makes the declaration
// sound (the dense reference scheduler executes them for real).
type drowsyNode struct {
	env    *Env
	stopAt int
	log    []string
}

var _ Recoverable = (*drowsyNode)(nil)

func (d *drowsyNode) Init(env *Env) { d.env = env }
func (d *drowsyNode) Recover()      { d.log = append(d.log, "rec") }

func (d *drowsyNode) Round(r int, inbox []Message) bool {
	reply := false
	for _, m := range inbox {
		d.log = append(d.log, fmt.Sprintf("r%d<%d:%x", r, m.From, m.Payload))
		if len(m.Payload) == 0 || m.Payload[0] != 0xEE {
			reply = true
		}
	}
	if r >= d.stopAt {
		return true
	}
	switch {
	case r%5 == 0:
		b := byte(d.env.Rand().Intn(256))
		for _, v := range d.env.Neighbors() {
			d.env.Send(v, []byte{b, byte(r)})
		}
	case reply:
		for _, v := range d.env.Neighbors() {
			d.env.Send(v, []byte{0xEE, byte(r)})
		}
	}
	// Sleep to the next action round, clamped to the halt round: halting
	// is a state change, so sleeping past stopAt would be an unsound
	// declaration and the dense comparison below would catch it.
	next := r + 5 - r%5
	if next > d.stopAt {
		next = d.stopAt
	}
	d.env.SleepUntil(next)
	return false
}

// drowsySchedules is the dormancy acceptance grid: fault-free (pure
// timer/delivery wakes), crash plus recovery (frontier eviction and
// revival), and corrupt+byzantine (serial-merge delivery with adversarial
// wakes at arbitrary rounds). Each schedule carries its golden pin: the
// full Stats and the per-node log digest (logDigest) of the run, recorded
// from the dense reference before the dense walk was folded into the
// frontier walk.
func drowsySchedules() []struct {
	name   string
	f      Faults
	stats  Stats
	digest uint64
} {
	return []struct {
		name   string
		f      Faults
		stats  Stats
		digest uint64
	}{
		{
			name:   "fault_free",
			f:      Faults{},
			stats:  Stats{Rounds: 28, Messages: 563, Bits: 9008, MaxMessageBits: 16, LiveNodeRounds: 492, Senders: 212},
			digest: 0x34e3c1a0f551765a,
		},
		{
			name: "crash_recover",
			f: Faults{
				DropProb:       0.3,
				CrashAtRound:   map[int]int{4: 2, 17: 5},
				RecoverAtRound: map[int]int{4: 9},
			},
			stats: Stats{Rounds: 28, Messages: 513, Bits: 8208, MaxMessageBits: 16, Dropped: 145,
				Crashed: 2, Recovered: 1, LiveNodeRounds: 472, Senders: 191},
			digest: 0xbbd03d4eac2017ec,
		},
		{
			name: "corrupt_byzantine",
			f: Faults{
				CorruptProb:        0.25,
				ByzantineFromRound: map[int]int{2: 1, 9: 3},
			},
			stats: Stats{Rounds: 28, Messages: 765, Bits: 12240, MaxMessageBits: 16,
				Corrupted: 173, Forged: 91, LiveNodeRounds: 492, Senders: 282},
			digest: 0x9a1e15fde88d4abd,
		},
	}
}

// logDigest is the FNV-64a digest of every node's receive log.
func logDigest(logs [][]string) uint64 {
	h := fnv.New64a()
	for i, l := range logs {
		fmt.Fprintf(h, "%d=%v;", i, l)
	}
	return h.Sum64()
}

func runDrowsy(t *testing.T, f Faults, dense bool) (Stats, [][]string) {
	t.Helper()
	g := stressGraph(t)
	n := g.N()
	nodes := make([]Node, n)
	drows := make([]*drowsyNode, n)
	for i := range nodes {
		drows[i] = &drowsyNode{stopAt: 12 + 5*(i%4)}
		nodes[i] = drows[i]
	}
	stats, err := Run(g, nodes, Config{
		Seed:   424242,
		Dense:  dense,
		Faults: f,
	})
	if err != nil {
		t.Fatal(err)
	}
	logs := make([][]string, n)
	for i, d := range drows {
		logs[i] = d.log
	}
	return stats, logs
}

// TestFrontierDeterminismMatrix pins invariant I5 over the dormancy grid:
// for every fault schedule, the frontier scheduler must reproduce the
// dense reference runner's execution byte for byte: identical Stats (the
// activity counters included) and identical per-node receive logs. Both
// runs share one walk, so the dense run is also held to the schedule's
// recorded golden pin, which catches a change to the walk's own
// bookkeeping that both modes would make alike. The RunShard arm of the
// same grid is TestTransportFrontierMatchesDense.
func TestFrontierDeterminismMatrix(t *testing.T) {
	for _, sc := range drowsySchedules() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			denseStats, denseLogs := runDrowsy(t, sc.f, true)
			if denseStats.Senders == 0 || denseStats.LiveNodeRounds == 0 {
				t.Fatalf("schedule too tame: %+v", denseStats)
			}
			if denseStats != sc.stats {
				t.Errorf("dense stats differ from the golden pin:\n got %#v\nwant %#v", denseStats, sc.stats)
			}
			if d := logDigest(denseLogs); d != sc.digest {
				t.Errorf("dense log digest = %#x, want golden %#x", d, sc.digest)
			}
			check := func(label string, st Stats, logs [][]string) {
				if st != denseStats {
					t.Fatalf("%s stats differ:\n%+v\n%+v", label, st, denseStats)
				}
				for id := range denseLogs {
					if fmt.Sprint(logs[id]) != fmt.Sprint(denseLogs[id]) {
						t.Fatalf("%s node %d log diverged:\n%v\n%v", label, id, logs[id], denseLogs[id])
					}
				}
			}
			seqStats, seqLogs := runDrowsy(t, sc.f, false)
			check("frontier", seqStats, seqLogs)
		})
	}
}

// tickNode counts its Round invocations: a beacon pings its neighbours
// every sixth round, everyone else sleeps until its halt round and only a
// delivery wakes it.
type tickNode struct {
	env    *Env
	beacon bool
	stopAt int
	runs   int
}

func (n *tickNode) Init(env *Env) { n.env = env }

func (n *tickNode) Round(r int, inbox []Message) bool {
	n.runs++
	if r >= n.stopAt {
		return true
	}
	next := n.stopAt
	if n.beacon {
		if r%6 == 0 {
			for _, v := range n.env.Neighbors() {
				n.env.Send(v, []byte{1})
			}
		}
		if nx := r + 6 - r%6; nx < next {
			next = nx
		}
	}
	n.env.SleepUntil(next)
	return false
}

// TestFrontierSkipsQuiescentNodes is the work-ceiling pin behind the
// sparse-rounds claim: on a star whose centre beacons every sixth round,
// the frontier scheduler must invoke each leaf's Round only on round 0,
// once per delivery, and at its halt round — while the dense reference
// runs every node every round. The counts are exact, not bounds.
func TestFrontierSkipsQuiescentNodes(t *testing.T) {
	const leaves, stopAt = 8, 30
	build := func() ([]Node, []*tickNode, *Graph) {
		g := NewGraph(leaves + 1)
		for v := 1; v <= leaves; v++ {
			if err := g.AddEdge(0, v); err != nil {
				t.Fatal(err)
			}
		}
		ticks := make([]*tickNode, leaves+1)
		nodes := make([]Node, leaves+1)
		for i := range nodes {
			ticks[i] = &tickNode{beacon: i == 0, stopAt: stopAt}
			nodes[i] = ticks[i]
		}
		return nodes, ticks, g
	}

	nodes, ticks, g := build()
	frontStats, err := Run(g, nodes, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Beacon: timer wakes at rounds 0,6,12,18,24 plus the halt round.
	if got, want := ticks[0].runs, 6; got != want {
		t.Errorf("beacon ran %d rounds, want %d", got, want)
	}
	// Leaves: round 0, one wake per beacon delivery (rounds 1,7,13,19,25),
	// and the halt round.
	for v := 1; v <= leaves; v++ {
		if got, want := ticks[v].runs, 7; got != want {
			t.Errorf("leaf %d ran %d rounds, want %d", v, got, want)
		}
	}

	nodes, ticks, g = build()
	denseStats, err := Run(g, nodes, Config{Seed: 1, Dense: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, tick := range ticks {
		if got, want := tick.runs, stopAt+1; got != want {
			t.Errorf("dense node %d ran %d rounds, want %d", i, got, want)
		}
	}
	if frontStats != denseStats {
		t.Errorf("stats diverged:\nfrontier %+v\ndense    %+v", frontStats, denseStats)
	}
}

// TestFrontierObserverParity is the tracing regression: with frontier
// bookkeeping active the observer must still see every delivered message,
// in the same per-round global-sender order as the dense reference.
func TestFrontierObserverParity(t *testing.T) {
	observeRun := func(dense bool) ([]string, Stats) {
		g := stressGraph(t)
		nodes := make([]Node, g.N())
		for i := range nodes {
			nodes[i] = &drowsyNode{stopAt: 12 + 5*(i%4)}
		}
		var stream []string
		stats, err := Run(g, nodes, Config{
			Seed:  7,
			Dense: dense,
			Observer: func(round int, delivered []Message) {
				last := -1
				for _, m := range delivered {
					if m.From < last {
						t.Errorf("round %d: delivery order not ascending by sender (%d after %d)", round, m.From, last)
					}
					last = m.From
					stream = append(stream, fmt.Sprintf("r%d %d>%d %x", round, m.From, m.To, m.Payload))
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return stream, stats
	}
	denseStream, denseStats := observeRun(true)
	if len(denseStream) == 0 {
		t.Fatal("workload too tame: nothing observed")
	}
	stream, stats := observeRun(false)
	if stats != denseStats {
		t.Errorf("frontier stats diverged:\n%+v\n%+v", stats, denseStats)
	}
	if fmt.Sprint(stream) != fmt.Sprint(denseStream) {
		t.Errorf("frontier observer stream diverged (%d vs %d deliveries)", len(stream), len(denseStream))
	}
}

// TestTransportFrontierMatchesDense extends the transport-seam I5 check to
// the frontier scheduler: a dormancy-heavy workload over a ChanNetwork
// fleet must produce identical per-node logs and summed activity stats in
// dense and frontier modes, both matching the in-process run.
func TestTransportFrontierMatchesDense(t *testing.T) {
	fleet := func(dense bool, k int) (Stats, [][]string) {
		g := stressGraph(t)
		g.Finalize()
		n := g.N()
		nodes := make([]Node, n)
		drows := make([]*drowsyNode, n)
		for i := range nodes {
			drows[i] = &drowsyNode{stopAt: 12 + 5*(i%4)}
			nodes[i] = drows[i]
		}
		spans := SplitSpans(n, k)
		net, err := NewChanNetwork(n, spans)
		if err != nil {
			t.Fatal(err)
		}
		var (
			wg       sync.WaitGroup
			mu       sync.Mutex
			total    Stats
			firstErr error
		)
		for si, span := range spans {
			wg.Add(1)
			go func(si int, span Span) {
				defer wg.Done()
				stats, err := RunShard(g, nodes, span, Config{Seed: 424242, Dense: dense}, net.Shard(si))
				mu.Lock()
				defer mu.Unlock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				total.Messages += stats.Messages
				total.Bits += stats.Bits
				total.Senders += stats.Senders
				total.LiveNodeRounds += stats.LiveNodeRounds
				total.FinalLive += stats.FinalLive
				if stats.Rounds > total.Rounds {
					total.Rounds = stats.Rounds
				}
			}(si, span)
		}
		wg.Wait()
		if firstErr != nil {
			t.Fatal(firstErr)
		}
		logs := make([][]string, n)
		for i, d := range drows {
			logs[i] = d.log
		}
		return total, logs
	}

	seqStats, seqLogs := runDrowsy(t, Faults{}, false)
	for _, k := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			denseStats, denseLogs := fleet(true, k)
			frontStats, frontLogs := fleet(false, k)
			if denseStats != frontStats {
				t.Errorf("fleet stats diverged:\ndense    %+v\nfrontier %+v", denseStats, frontStats)
			}
			for i := range denseLogs {
				if fmt.Sprint(denseLogs[i]) != fmt.Sprint(frontLogs[i]) {
					t.Errorf("node %d log diverged:\ndense    %v\nfrontier %v", i, denseLogs[i], frontLogs[i])
				}
				if fmt.Sprint(frontLogs[i]) != fmt.Sprint(seqLogs[i]) {
					t.Errorf("node %d fleet log diverged from in-process run:\nfleet      %v\nin-process %v", i, frontLogs[i], seqLogs[i])
				}
			}
			if frontStats.Messages != seqStats.Messages || frontStats.Senders != seqStats.Senders ||
				frontStats.LiveNodeRounds != seqStats.LiveNodeRounds {
				t.Errorf("fleet activity stats diverged from in-process run:\nfleet      %+v\nin-process %+v", frontStats, seqStats)
			}
		})
	}
}

// rejectNode sends to every neighbour in round 0 only. Every later round
// it runs stages no message: it rejects each arrival (round 1, woken by
// delivery) and rejects id%3+1 phantom frames when its timer wakes it at
// round 4, then halts at round 8 without sending again. The rounds between
// are sound no-ops, so the dense run agrees.
type rejectNode struct{ env *Env }

func (n *rejectNode) Init(env *Env) { n.env = env }

func (n *rejectNode) Round(r int, inbox []Message) bool {
	for range inbox {
		n.env.Reject()
	}
	switch r {
	case 0:
		for _, v := range n.env.Neighbors() {
			n.env.Send(v, []byte{1})
		}
	case 4:
		for i := 0; i <= n.env.ID()%3; i++ {
			n.env.Reject()
		}
	case 8:
		return true
	}
	if r < 4 {
		n.env.SleepUntil(4)
	} else {
		n.env.SleepUntil(8)
	}
	return false
}

// TestFrontierDrainsRejectOnlySenders pins that a node whose round stages
// no message but records a fail-closed reject still reaches the drain:
// the compute walk must list it as a sender, or its Env.Reject counts are
// never folded into Stats.Rejected.
func TestFrontierDrainsRejectOnlySenders(t *testing.T) {
	const n = 6
	for _, dense := range []bool{false, true} {
		g := NewGraph(n)
		for v := 0; v < n; v++ {
			if err := g.AddEdge(v, (v+1)%n); err != nil {
				t.Fatal(err)
			}
		}
		nodes := make([]Node, n)
		for i := range nodes {
			nodes[i] = &rejectNode{}
		}
		stats, err := Run(g, nodes, Config{Seed: 5, Dense: dense})
		if err != nil {
			t.Fatal(err)
		}
		// Rejected: 12 arrivals on the 6-ring plus 1+2+3+1+2+3 at round 4.
		// Senders counts only round 0, when every node stages messages.
		want := Stats{Rounds: 9, Messages: 12, Bits: 96, MaxMessageBits: 8, Rejected: 24,
			LiveNodeRounds: 54, Senders: 6}
		if stats != want {
			t.Errorf("dense=%v stats:\n got %#v\nwant %#v", dense, stats, want)
		}
	}
}
