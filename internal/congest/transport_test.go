package congest

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestSplitSpans(t *testing.T) {
	cases := []struct {
		n, k int
		want []Span
	}{
		{10, 1, []Span{{0, 10}}},
		{10, 3, []Span{{0, 4}, {4, 7}, {7, 10}}},
		{4, 4, []Span{{0, 1}, {1, 2}, {2, 3}, {3, 4}}},
		{3, 8, []Span{{0, 1}, {1, 2}, {2, 3}}}, // k clamped to n
		{5, 0, []Span{{0, 5}}},                 // k clamped to 1
	}
	for _, c := range cases {
		got := SplitSpans(c.n, c.k)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("SplitSpans(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
}

// runFleet executes nodes on g as k RunShard spans over a ChanNetwork, one
// goroutine per shard, and returns the shard Stats combined the way a
// coordinator would — counters summed, Rounds and MaxMessageBits maxed —
// plus the first shard error in span order. A shard that aborts leaves its
// peers waiting at the barrier, so error paths are driven at k=1 only.
func runFleet(t *testing.T, g *Graph, nodes []Node, cfg Config, k int) (Stats, error) {
	t.Helper()
	g.Finalize()
	spans := SplitSpans(g.N(), k)
	net, err := NewChanNetwork(g.N(), spans)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]Stats, len(spans))
	errs := make([]error, len(spans))
	var wg sync.WaitGroup
	for si, span := range spans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			all[si], errs[si] = RunShard(g, nodes, span, cfg, net.Shard(si))
		}()
	}
	wg.Wait()
	var total Stats
	for _, s := range all {
		total.Rounds = max(total.Rounds, s.Rounds)
		total.Messages += s.Messages
		total.Bits += s.Bits
		total.MaxMessageBits = max(total.MaxMessageBits, s.MaxMessageBits)
		total.Rejected += s.Rejected
		total.LiveNodeRounds += s.LiveNodeRounds
		total.Senders += s.Senders
		total.FinalLive += s.FinalLive
	}
	for _, err := range errs {
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// runShardFleet executes the stress workload over a ChanNetwork split into
// k spans and returns the aggregated stats and per-node logs.
func runShardFleet(t *testing.T, k int) (Stats, [][]string) {
	t.Helper()
	g := stressGraph(t)
	n := g.N()
	nodes := make([]Node, n)
	recs := make([]*recNode, n)
	for i := range nodes {
		recs[i] = &recNode{stopAt: 4 + i/3}
		nodes[i] = recs[i]
	}
	total, err := runFleet(t, g, nodes, Config{Seed: 99}, k)
	if err != nil {
		t.Fatal(err)
	}
	logs := make([][]string, n)
	for i, r := range recs {
		logs[i] = r.log
	}
	return total, logs
}

// TestRunShardMatchesSequential is the transport-seam analogue of the I5
// matrix: the same workload run through RunShard over a ChanNetwork, at
// every shard count, must reproduce the sequential engine's execution —
// identical per-node receive logs and identical protocol-level message
// accounting.
func TestRunShardMatchesSequential(t *testing.T) {
	g := stressGraph(t)
	n := g.N()
	nodes := make([]Node, n)
	recs := make([]*recNode, n)
	for i := range nodes {
		recs[i] = &recNode{stopAt: 4 + i/3}
		nodes[i] = recs[i]
	}
	seqStats, err := Run(g, nodes, Config{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	seqLogs := make([][]string, n)
	for i, r := range recs {
		seqLogs[i] = r.log
	}

	for _, k := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			stats, logs := runShardFleet(t, k)
			if stats.Messages != seqStats.Messages || stats.Bits != seqStats.Bits || stats.MaxMessageBits != seqStats.MaxMessageBits {
				t.Errorf("stats diverged: sharded %+v vs sequential %+v", stats, seqStats)
			}
			if stats.Rounds != seqStats.Rounds {
				t.Errorf("rounds diverged: sharded %d vs sequential %d", stats.Rounds, seqStats.Rounds)
			}
			for i := range logs {
				if fmt.Sprint(logs[i]) != fmt.Sprint(seqLogs[i]) {
					t.Errorf("node %d log diverged:\n sharded    %v\n sequential %v", i, logs[i], seqLogs[i])
				}
			}
		})
	}
}

func TestRunShardRejectsFaultConfigs(t *testing.T) {
	g := mustGraph(t, 2, [][2]int{{0, 1}})
	g.Finalize()
	net, err := NewChanNetwork(2, []Span{{0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	nodes := []Node{&recNode{stopAt: 1}, &recNode{stopAt: 1}}
	if _, err := RunShard(g, nodes, Span{0, 2}, Config{Faults: Faults{DropProb: 0.5}}, net.Shard(0)); err == nil {
		t.Fatal("RunShard accepted a simulated fault schedule")
	}
	if _, err := RunShard(g, nodes, Span{0, 2}, Config{Reliable: Reliable{RetryBudget: 2}}, net.Shard(0)); err == nil {
		t.Fatal("RunShard accepted the simulated reliable shim")
	}
}

func TestChanNetworkRejectsBadSpans(t *testing.T) {
	if _, err := NewChanNetwork(4, []Span{{0, 2}, {3, 4}}); err == nil {
		t.Fatal("accepted a gap in the span tiling")
	}
	if _, err := NewChanNetwork(4, []Span{{0, 2}, {2, 3}}); err == nil {
		t.Fatal("accepted spans not covering n")
	}
}

// TestReliableRetryExhaustionTyped pins the typed per-link report of
// satellite interest: a link held down past the shim's entire retry
// schedule must surface a LinkDownError naming the peer, the declaration
// round, and the attempts spent — and count the event in Stats.LinkDowns.
func TestReliableRetryExhaustionTyped(t *testing.T) {
	g := mustGraph(t, 2, [][2]int{{0, 1}})
	var downs []LinkDownError
	s := &sink{stopAt: 14}
	stats, err := Run(g, []Node{&oneShot{to: 1, pay: []byte{'X'}}, s}, Config{
		Reliable: Reliable{RetryBudget: 2},
		Faults: Faults{
			LinkDowns: []LinkDown{{U: 0, V: 1, RoundRange: RoundRange{FromRound: 0, ToRound: 1 << 20}}},
		},
		OnLinkDown: func(e LinkDownError) { downs = append(downs, e) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.got) != 0 {
		t.Fatalf("payload delivered through a dead link: %v", s.got)
	}
	if stats.LinkDowns != 1 {
		t.Fatalf("Stats.LinkDowns = %d, want 1", stats.LinkDowns)
	}
	if len(downs) != 1 {
		t.Fatalf("OnLinkDown fired %d times, want 1", len(downs))
	}
	// Schedule: initial attempt at round 0, retries at rounds 2 and 5
	// (attempt a waits a+1 rounds), abandonment when the next retry comes
	// due at round 9 with the budget of 2 retransmissions spent.
	want := LinkDownError{From: 0, To: 1, Round: 9, Attempts: 3}
	if downs[0] != want {
		t.Fatalf("link-down report = %+v, want %+v", downs[0], want)
	}
	if msg := downs[0].Error(); msg != "congest: link 0->1 down at round 9 after 3 attempts" {
		t.Fatalf("unexpected error text %q", msg)
	}
}

// scriptTransport is a single-shard Transport whose peers are scripted:
// Gather returns the arrivals listed for the round, and the run ends after
// the given number of rounds.
type scriptTransport struct {
	rounds int
	inject map[int][]Message
}

func (s *scriptTransport) Begin(round int) (RoundStart, error) {
	return RoundStart{Done: round >= s.rounds}, nil
}
func (s *scriptTransport) Send(int, []Message) error { return nil }
func (s *scriptTransport) Gather(round int, _ bool) ([]Message, error) {
	return s.inject[round], nil
}

// TestRunShardRejectsForgedSenders pins the fail-closed remote ingest: a
// peer may only deliver messages a faithful shard can have sent. A sender
// that is not the recipient's neighbour, a sender inside the receiving
// span, or a second message on one link in one round aborts the run; a
// well-formed arrival is delivered.
func TestRunShardRejectsForgedSenders(t *testing.T) {
	cases := []struct {
		name    string
		in      []Message
		wantErr string
	}{
		{"honest", []Message{{From: 2, To: 1, Payload: []byte{'h'}}}, ""},
		{"non_neighbour", []Message{{From: 3, To: 1, Payload: []byte{'x'}}}, "not a remote neighbour"},
		{"local_sender", []Message{{From: 0, To: 1, Payload: []byte{'x'}}}, "not a remote neighbour"},
		{"duplicate_link", []Message{
			{From: 2, To: 1, Payload: []byte{'a'}},
			{From: 2, To: 1, Payload: []byte{'b'}},
		}, "two messages"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := mustGraph(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
			g.Finalize()
			recs := []*recNode{{stopAt: 3}, {stopAt: 3}}
			nodes := []Node{recs[0], recs[1], nil, nil}
			tr := &scriptTransport{rounds: 4, inject: map[int][]Message{0: tc.in}}
			_, err := RunShard(g, nodes, Span{Lo: 0, Hi: 2}, Config{Seed: 1}, tr)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprint(recs[1].log); !strings.Contains(got, "Ch") {
					t.Fatalf("honest arrival not delivered: node 1 log %v", got)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("RunShard = %v, want an error containing %q", err, tc.wantErr)
			}
		})
	}
}

// shardMatrixSchedules is the fault grid of the stress determinism matrix.
func shardMatrixSchedules() []struct {
	name string
	f    Faults
} {
	return []struct {
		name string
		f    Faults
	}{
		{name: "fault_free", f: Faults{}},
		{name: "drop_crash", f: Faults{
			DropProb:     0.3,
			CrashAtRound: map[int]int{4: 2, 17: 5},
		}},
		{name: "corrupt_byzantine", f: Faults{
			CorruptProb:        0.25,
			ByzantineFromRound: map[int]int{2: 1, 9: 3},
		}},
	}
}

// matrixNodes is the stress workload of the determinism matrix: staggered
// halts cluster the live nodes at the high ids late in the run.
func matrixNodes(n int) ([]Node, []*recNode) {
	nodes := make([]Node, n)
	recs := make([]*recNode, n)
	for i := range nodes {
		recs[i] = &recNode{stopAt: 4 + i/3}
		nodes[i] = recs[i]
	}
	return nodes, recs
}

func recLogs(recs []*recNode) [][]string {
	logs := make([][]string, len(recs))
	for i, r := range recs {
		logs[i] = r.log
	}
	return logs
}

// TestShardedDeterminismMatrix asserts invariant I5 over the stress grid:
// every schedule yields Stats and per-node receive logs (payload bytes
// included) under the frontier scheduler byte-identical to the dense
// reference, and the fault-free schedule yields the same again through
// RunShard over a ChanNetwork at shard counts 1, 2 and 8. Fault schedules
// are simulated by Run only, so they have no shard dimension.
func TestShardedDeterminismMatrix(t *testing.T) {
	for _, sc := range shardMatrixSchedules() {
		t.Run(sc.name, func(t *testing.T) {
			run := func(dense bool) (Stats, [][]string) {
				g := stressGraph(t)
				nodes, recs := matrixNodes(g.N())
				stats, err := Run(g, nodes, Config{Seed: 424242, Dense: dense, Faults: sc.f})
				if err != nil {
					t.Fatal(err)
				}
				return stats, recLogs(recs)
			}
			refStats, refLogs := run(true)
			if sc.f.DropProb > 0 && refStats.Dropped == 0 {
				t.Fatalf("schedule too tame: %+v", refStats)
			}
			if sc.f.CorruptProb > 0 && refStats.Corrupted == 0 {
				t.Fatalf("schedule too tame: %+v", refStats)
			}
			check := func(label string, st Stats, logs [][]string) {
				if st != refStats {
					t.Fatalf("%s stats differ:\n%+v\n%+v", label, st, refStats)
				}
				for id := range refLogs {
					if fmt.Sprint(logs[id]) != fmt.Sprint(refLogs[id]) {
						t.Fatalf("%s node %d log diverged:\n%v\n%v", label, id, logs[id], refLogs[id])
					}
				}
			}
			st, logs := run(false)
			check("frontier", st, logs)
			if sc.f.active() {
				return
			}
			for _, k := range []int{1, 2, 8} {
				g := stressGraph(t)
				nodes, recs := matrixNodes(g.N())
				st, err := runFleet(t, g, nodes, Config{Seed: 424242}, k)
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("RunShard k=%d", k), st, recLogs(recs))
			}
		})
	}
}

// TestShardedSendViolationMatchesSequential pins the abort path of the one
// kernel: when a node breaks the CONGEST send contract mid-merge, RunShard
// must report the same error and the same partially-accounted Stats (the
// senders drained before the violator) as Run.
func TestShardedSendViolationMatchesSequential(t *testing.T) {
	setup := func() (*Graph, []Node) {
		g := mustGraph(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
		return g, []Node{&recNode{stopAt: 5}, &recNode{stopAt: 5}, &errNode{mode: "double"}, &recNode{stopAt: 5}}
	}
	g, nodes := setup()
	seqStats, seqErr := Run(g, nodes, Config{BitLimit: 16})
	if seqErr == nil || !strings.Contains(seqErr.Error(), "sent twice") {
		t.Fatalf("Run = %v, want a double-send violation", seqErr)
	}
	if seqStats.Messages == 0 {
		t.Fatalf("no partial accounting before the violation: %+v", seqStats)
	}
	g, nodes = setup()
	shardStats, shardErr := runFleet(t, g, nodes, Config{BitLimit: 16}, 1)
	if shardErr == nil || shardErr.Error() != seqErr.Error() {
		t.Fatalf("RunShard error %v, want %v", shardErr, seqErr)
	}
	if shardStats != seqStats {
		t.Fatalf("RunShard stats %+v, want %+v", shardStats, seqStats)
	}
}
