package congest

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func mustGraph(t *testing.T, n int, edges [][2]int) *Graph {
	t.Helper()
	g := NewGraph(n)
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatalf("AddEdge(%v): %v", e, err)
		}
	}
	return g
}

func TestGraphBasics(t *testing.T) {
	g := mustGraph(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	if g.N() != 4 || g.EdgeCount() != 3 {
		t.Fatalf("N=%d E=%d", g.N(), g.EdgeCount())
	}
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 1) {
		t.Error("HasEdge should be symmetric")
	}
	if g.HasEdge(0, 3) || g.HasEdge(-1, 0) || g.HasEdge(9, 0) {
		t.Error("HasEdge false positives")
	}
	if g.Degree(1) != 2 || g.Degree(0) != 1 {
		t.Errorf("degrees: %d %d", g.Degree(1), g.Degree(0))
	}
}

func TestGraphAddEdgeErrors(t *testing.T) {
	g := NewGraph(3)
	tests := []struct {
		name    string
		u, v    int
		wantErr string
	}{
		{"out of range", 0, 9, "out of range"},
		{"negative", -1, 0, "out of range"},
		{"self loop", 1, 1, "self-loop"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := g.AddEdge(tt.u, tt.v); err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("AddEdge(%d,%d) = %v, want %q", tt.u, tt.v, err, tt.wantErr)
			}
		})
	}
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 0); err != nil {
		t.Fatalf("AddEdge is O(1) now; duplicates surface at FinalizeChecked, got %v", err)
	}
	if err := g.FinalizeChecked(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("FinalizeChecked = %v, want duplicate error", err)
	}
	// Even the checked freeze leaves a usable deduplicated graph behind.
	if g.EdgeCount() != 1 || !g.HasEdge(0, 1) {
		t.Fatalf("post-freeze graph: E=%d HasEdge(0,1)=%v", g.EdgeCount(), g.HasEdge(0, 1))
	}
	if err := g.AddEdge(0, 2); err == nil || !strings.Contains(err.Error(), "frozen") {
		t.Fatalf("AddEdge on frozen graph = %v, want frozen error", err)
	}
}

func TestBipartite(t *testing.T) {
	g, err := Bipartite(2, 3, func(yield func(i, j int) bool) {
		yield(0, 0)
		yield(0, 1)
		yield(1, 2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 5 || g.EdgeCount() != 3 {
		t.Fatalf("N=%d E=%d", g.N(), g.EdgeCount())
	}
	if !g.HasEdge(0, 2) || !g.HasEdge(1, 4) {
		t.Error("expected facility-client edges missing")
	}
	if _, err := Bipartite(1, 1, func(yield func(i, j int) bool) {
		yield(0, 0)
		yield(0, 0)
	}); err == nil {
		t.Fatal("duplicate bipartite edge should fail")
	}
}

// pingNode floods a token: node 0 starts with it; every node that has seen
// the token broadcasts it once, then halts after quiet rounds. It verifies
// basic delivery semantics.
type pingNode struct {
	env     *Env
	haveTok bool
	sent    bool
	gotAt   int
}

func (p *pingNode) Init(env *Env) {
	p.env = env
	p.gotAt = -1
	if env.ID() == 0 {
		p.haveTok = true
		p.gotAt = 0
	}
}

func (p *pingNode) Round(r int, inbox []Message) bool {
	if !p.haveTok {
		for _, m := range inbox {
			if len(m.Payload) == 1 && m.Payload[0] == 'T' {
				p.haveTok = true
				p.gotAt = r
			}
		}
	}
	if p.haveTok && !p.sent {
		p.env.Broadcast([]byte{'T'})
		p.sent = true
		return false
	}
	return p.sent || r > 10
}

func TestRunFloodsPath(t *testing.T) {
	g := mustGraph(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	nodes := make([]Node, 4)
	pings := make([]*pingNode, 4)
	for i := range nodes {
		pings[i] = &pingNode{}
		nodes[i] = pings[i]
	}
	stats, err := Run(g, nodes, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Token travels one hop per round: node i receives it at round i.
	for i, p := range pings {
		if p.gotAt != i {
			t.Errorf("node %d got token at round %d, want %d", i, p.gotAt, i)
		}
	}
	if stats.Messages == 0 || stats.Bits != stats.Messages*8 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.MaxMessageBits != 8 {
		t.Errorf("MaxMessageBits = %d, want 8", stats.MaxMessageBits)
	}
}

// errNode misbehaves in a configurable way to exercise engine policing.
type errNode struct {
	env  *Env
	mode string
}

func (e *errNode) Init(env *Env) { e.env = env }

func (e *errNode) Round(r int, inbox []Message) bool {
	switch e.mode {
	case "nonNeighbor":
		e.env.Send(2, []byte{1}) // node 0 is not adjacent to 2
	case "tooBig":
		e.env.Send(1, make([]byte, 64))
	case "double":
		e.env.Send(1, []byte{1})
		e.env.Send(1, []byte{2})
	}
	return true
}

func TestRunPolicesSends(t *testing.T) {
	tests := []struct {
		mode    string
		wantErr string
	}{
		{"nonNeighbor", "non-neighbour"},
		{"tooBig", "exceeds limit"},
		{"double", "sent twice"},
	}
	for _, tt := range tests {
		t.Run(tt.mode, func(t *testing.T) {
			g := mustGraph(t, 3, [][2]int{{0, 1}, {1, 2}})
			nodes := []Node{&errNode{mode: tt.mode}, &errNode{}, &errNode{}}
			_, err := Run(g, nodes, Config{BitLimit: 16})
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("Run = %v, want %q", err, tt.wantErr)
			}
		})
	}
}

// spinNode never halts.
type spinNode struct{}

func (spinNode) Init(*Env)                 {}
func (spinNode) Round(int, []Message) bool { return false }

func TestRunRoundLimit(t *testing.T) {
	g := NewGraph(1)
	_, err := Run(g, []Node{spinNode{}}, Config{MaxRounds: 10})
	if !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("err = %v, want ErrRoundLimit", err)
	}
}

func TestRunNodeCountMismatch(t *testing.T) {
	g := NewGraph(2)
	if _, err := Run(g, []Node{spinNode{}}, Config{}); err == nil {
		t.Fatal("want node/vertex mismatch error")
	}
}

// recNode records everything it receives and halts at a fixed round,
// optionally sending a random byte to each neighbour first. It drives the
// Run-vs-RunShard equivalence tests.
type recNode struct {
	env     *Env
	stopAt  int
	log     []string
	rndByte byte
}

func (rn *recNode) Init(env *Env) { rn.env = env }

func (rn *recNode) Round(r int, inbox []Message) bool {
	for _, m := range inbox {
		rn.log = append(rn.log, string(rune('A'+m.From))+string(m.Payload))
	}
	if r >= rn.stopAt {
		return true
	}
	b := byte(rn.env.Rand().Intn(256))
	rn.rndByte = b
	for _, v := range rn.env.Neighbors() {
		rn.env.Send(v, []byte{b, byte(r)})
	}
	return false
}

func runRec(t *testing.T, shards int) (Stats, [][]string) {
	t.Helper()
	g := mustGraph(t, 6, [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}})
	nodes := make([]Node, 6)
	recs := make([]*recNode, 6)
	for i := range nodes {
		recs[i] = &recNode{stopAt: 5}
		nodes[i] = recs[i]
	}
	var stats Stats
	var err error
	if shards == 0 {
		stats, err = Run(g, nodes, Config{Seed: 42})
	} else {
		stats, err = runFleet(t, g, nodes, Config{Seed: 42}, shards)
	}
	if err != nil {
		t.Fatal(err)
	}
	logs := make([][]string, 6)
	for i, r := range recs {
		logs[i] = r.log
	}
	return stats, logs
}

// TestParallelMatchesSequential: the same workload run as concurrent
// RunShard spans over a ChanNetwork, at every shard count, reproduces
// Run's Stats and per-node receive logs exactly.
func TestParallelMatchesSequential(t *testing.T) {
	seqStats, seqLogs := runRec(t, 0)
	for _, shards := range []int{1, 2, 3, 8} {
		parStats, parLogs := runRec(t, shards)
		if seqStats != parStats {
			t.Fatalf("shards=%d stats differ: %+v vs %+v", shards, seqStats, parStats)
		}
		for id := range seqLogs {
			if len(seqLogs[id]) != len(parLogs[id]) {
				t.Fatalf("shards=%d node %d log length %d vs %d", shards, id, len(seqLogs[id]), len(parLogs[id]))
			}
			for k := range seqLogs[id] {
				if seqLogs[id][k] != parLogs[id][k] {
					t.Fatalf("shards=%d node %d entry %d: %q vs %q", shards, id, k, seqLogs[id][k], parLogs[id][k])
				}
			}
		}
	}
}

// TestParallelEquivalenceProperty repeats the Run/RunShard equivalence
// check over random seeds via testing/quick, at 2 shards.
func TestParallelEquivalenceProperty(t *testing.T) {
	run := func(seed int64, shards int) (Stats, [][]string, error) {
		g := mustGraph(t, 5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 2}})
		nodes := make([]Node, 5)
		recs := make([]*recNode, 5)
		for i := range nodes {
			recs[i] = &recNode{stopAt: 4}
			nodes[i] = recs[i]
		}
		var st Stats
		var err error
		if shards == 0 {
			st, err = Run(g, nodes, Config{Seed: seed})
		} else {
			st, err = runFleet(t, g, nodes, Config{Seed: seed}, shards)
		}
		logs := make([][]string, 5)
		for i, r := range recs {
			logs[i] = r.log
		}
		return st, logs, err
	}
	f := func(seed int64) bool {
		s1, l1, err1 := run(seed, 0)
		s2, l2, err2 := run(seed, 2)
		if err1 != nil || err2 != nil || s1 != s2 {
			return false
		}
		for i := range l1 {
			if len(l1[i]) != len(l2[i]) {
				return false
			}
			for k := range l1[i] {
				if l1[i][k] != l2[i][k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// stressGraph is a 24-node graph with an irregular degree distribution, so
// that work per span is uneven and shard boundaries cut real traffic.
func stressGraph(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph(24)
	add := func(u, v int) {
		if err := g.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 23; i++ {
		add(i, i+1) // path backbone
	}
	for i := 2; i < 24; i += 3 {
		add(0, i) // hub at node 0
	}
	add(5, 20)
	add(7, 15)
	return g
}

// sortedInboxNode fails the run if its inbox ever arrives unsorted by
// sender id or with a duplicate sender — the invariant that lets the merge
// skip the per-inbox sort entirely.
type sortedInboxNode struct {
	env    *Env
	t      *testing.T
	stopAt int
}

func (s *sortedInboxNode) Init(env *Env) { s.env = env }

func (s *sortedInboxNode) Round(r int, inbox []Message) bool {
	for k := 1; k < len(inbox); k++ {
		if inbox[k-1].From >= inbox[k].From {
			s.t.Errorf("node %d round %d: inbox out of order or duplicated: %d then %d",
				s.env.ID(), r, inbox[k-1].From, inbox[k].From)
		}
	}
	if r >= s.stopAt {
		return true
	}
	s.env.Broadcast([]byte{byte(r)})
	return false
}

// TestInboxesArriveSortedWithoutSort guards the sorted-merge invariant:
// ascending-sender merge order plus the one-message-per-pair rule means
// Run's inboxes are born sorted, so the engine does not sort them; under
// RunShard the remote ingest restores the same order.
func TestInboxesArriveSortedWithoutSort(t *testing.T) {
	for _, shards := range []int{0, 2, 8} {
		g := stressGraph(t)
		nodes := make([]Node, g.N())
		for i := range nodes {
			nodes[i] = &sortedInboxNode{t: t, stopAt: 6}
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
	}
}

// TestStatsRoundsOnRoundLimit: aborting on the round budget reports the
// rounds actually executed, not zero — and RunShard at one shard aborts
// with the same error and the same Stats as Run.
func TestStatsRoundsOnRoundLimit(t *testing.T) {
	stats, err := Run(NewGraph(1), []Node{spinNode{}}, Config{MaxRounds: 10})
	if !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("err = %v, want ErrRoundLimit", err)
	}
	if stats.Rounds != 10 {
		t.Fatalf("Rounds = %d, want 10 (the exhausted budget)", stats.Rounds)
	}
	shardStats, shardErr := runFleet(t, NewGraph(1), []Node{spinNode{}}, Config{MaxRounds: 10}, 1)
	if shardErr == nil || shardErr.Error() != err.Error() {
		t.Fatalf("RunShard error %v, want %v", shardErr, err)
	}
	if shardStats != stats {
		t.Fatalf("RunShard stats %+v, want %+v", shardStats, stats)
	}
}

// TestStatsRoundsOnSendError: a send violation aborts with the partial
// round included in Rounds — and RunShard at one shard aborts with the
// same error and the same Stats as Run.
func TestStatsRoundsOnSendError(t *testing.T) {
	setup := func() (*Graph, []Node) {
		g := mustGraph(t, 3, [][2]int{{0, 1}, {1, 2}})
		return g, []Node{&errNode{mode: "nonNeighbor"}, &errNode{}, &errNode{}}
	}
	g, nodes := setup()
	stats, err := Run(g, nodes, Config{BitLimit: 16})
	if err == nil {
		t.Fatal("want send violation")
	}
	if stats.Rounds != 1 {
		t.Fatalf("Rounds = %d, want 1 (the round whose merge hit the violation)", stats.Rounds)
	}
	g, nodes = setup()
	shardStats, shardErr := runFleet(t, g, nodes, Config{BitLimit: 16}, 1)
	if shardErr == nil || shardErr.Error() != err.Error() {
		t.Fatalf("RunShard error %v, want %v", shardErr, err)
	}
	if shardStats != stats {
		t.Fatalf("RunShard stats %+v, want %+v", shardStats, stats)
	}
}

func TestObserverSeesAllMessages(t *testing.T) {
	g := mustGraph(t, 2, [][2]int{{0, 1}})
	nodes := []Node{&recNode{stopAt: 3}, &recNode{stopAt: 3}}
	var observed int64
	stats, err := Run(g, nodes, Config{Seed: 7, Observer: func(round int, delivered []Message) {
		observed += int64(len(delivered))
	}})
	if err != nil {
		t.Fatal(err)
	}
	if observed != stats.Messages {
		t.Fatalf("observer saw %d messages, stats counted %d", observed, stats.Messages)
	}
}

func TestSuggestedBitLimit(t *testing.T) {
	tests := []struct{ n, min int }{
		{2, 64}, {1024, 64}, {1 << 20, 80}, {1 << 22, 88},
	}
	for _, tt := range tests {
		got := SuggestedBitLimit(tt.n)
		if got < tt.min || got%8 != 0 {
			t.Errorf("SuggestedBitLimit(%d) = %d, want >= %d and byte aligned", tt.n, got, tt.min)
		}
	}
}

func TestNodeSeedDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for id := 0; id < 1000; id++ {
		s := nodeSeed(12345, id)
		if seen[s] {
			t.Fatalf("nodeSeed collision at id %d", id)
		}
		seen[s] = true
	}
	if nodeSeed(1, 0) == nodeSeed(2, 0) {
		t.Error("different run seeds should give different node seeds")
	}
}

func TestMessageBits(t *testing.T) {
	m := Message{Payload: []byte{1, 2, 3}}
	if m.Bits() != 24 {
		t.Fatalf("Bits = %d", m.Bits())
	}
}

// lateSender halts on its very first round but sends a final message; the
// engine must still deliver and count it exactly once.
type lateSender struct{ env *Env }

func (l *lateSender) Init(env *Env) { l.env = env }
func (l *lateSender) Round(r int, inbox []Message) bool {
	if r == 0 {
		l.env.Send(1, []byte{9})
	}
	return true
}

type countReceiver struct {
	got int
}

func (c *countReceiver) Init(*Env) {}
func (c *countReceiver) Round(r int, inbox []Message) bool {
	c.got += len(inbox)
	return r >= 2
}

func TestFinalMessageFromHaltingNodeCountedOnce(t *testing.T) {
	g := mustGraph(t, 2, [][2]int{{0, 1}})
	recv := &countReceiver{}
	stats, err := Run(g, []Node{&lateSender{}, recv}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages != 1 {
		t.Fatalf("Messages = %d, want exactly 1", stats.Messages)
	}
	if recv.got != 1 {
		t.Fatalf("receiver got %d messages, want 1", recv.got)
	}
}
