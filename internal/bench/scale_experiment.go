package bench

import (
	"fmt"
	"runtime"
	"time"

	"dfl/internal/congest"
	"dfl/internal/core"
	"dfl/internal/gen"
)

// scaleSize is one row group of T15: a network size and the per-run round
// budget it is measured over. Budgets shrink with size so the full sweep
// stays in minutes — the steady-state differential below is independent of
// the budget, and rates stabilize after a handful of rounds.
type scaleSize struct {
	n      int
	rounds int
}

func scaleSizes(p Params) []scaleSize {
	if p.Quick {
		return []scaleSize{{100_000, 1}} // n stays at 10^5 so the quick alloc gate measures the real size
	}
	return []scaleSize{{100_000, 6}, {1_000_000, 3}, {5_000_000, 2}}
}

// MillionNodeScaling regenerates Table 15 (E16): the engine at 10^5..5*10^6
// nodes. Unlike T10 — which times whole runs, so per-run setup dominates its
// allocation column — T15 isolates the steady state: the graph and node
// slice are built once per size outside the measured window, and
// allocs/round is the differential (mallocs(2R) - mallocs(R)) / R between
// two runs on the same frozen graph, which cancels the per-run env
// construction exactly. On the CSR + arena layout that differential is the
// true per-round allocation rate, and the acceptance bar is that it stays
// flat as n grows 50x.
func MillionNodeScaling(p Params) ([]Table, error) {
	t := Table{
		ID:    "T15",
		Title: "Million-node engine scaling (CSR adjacency, arena payloads)",
		Note: fmt.Sprintf("degree-8 circulant, GOMAXPROCS=%d; graph+nodes built once per size outside the measured window; allocs/round = (mallocs(2R)-mallocs(R))/R on the same frozen graph, cancelling per-run env setup",
			runtime.GOMAXPROCS(0)),
		Columns: []string{"nodes", "edges", "setup ms", "rounds/sec", "msgs/sec", "allocs/round", "messages"},
	}
	// The footprint row runs first: MemStats.Sys is a process-lifetime
	// high-water mark, so measuring it before the multi-gigabyte chatter
	// sweeps is what makes it a usable RSS proxy for this row alone.
	mem, err := millionNodeSolve(p)
	if err != nil {
		return nil, err
	}
	for _, sz := range scaleSizes(p) {
		setupStart := time.Now()
		g := chatterGraph(sz.n)
		g.Finalize()
		chat := make([]*chatterNode, sz.n)
		nodes := make([]congest.Node, sz.n)
		for i := range nodes {
			chat[i] = &chatterNode{}
			nodes[i] = chat[i]
		}
		setup := time.Since(setupStart)
		_, m1, st1, err := scaleRun(g, nodes, chat, sz.rounds, p.Seed)
		if err != nil {
			return nil, err
		}
		elapsed, m2, st2, err := scaleRun(g, nodes, chat, 2*sz.rounds, p.Seed)
		if err != nil {
			return nil, err
		}
		extra := st2.Rounds - st1.Rounds
		if extra <= 0 {
			extra = 1
		}
		if m2 < m1 { // GC bookkeeping jitter; clamp rather than underflow
			m2 = m1
		}
		secs := elapsed.Seconds()
		if secs <= 0 {
			secs = 1e-9
		}
		t.Add(in(sz.n), in(sz.n*4),
			f64(float64(setup.Microseconds())/1000),
			f64(float64(st2.Rounds)/secs),
			f64(float64(st2.Messages)/secs),
			f64(float64(m2-m1)/float64(extra)),
			i64(st2.Messages))
	}
	return []Table{t, mem}, nil
}

// scaleRun executes one chatter run against a pre-built frozen graph and
// node slice, reporting wall time and the allocation count across it. The
// node structs are reused between runs — Init rebinds their envs — so only
// congest.Run's own per-run state is inside the window, and the T15
// differential subtracts exactly that.
func scaleRun(g *congest.Graph, nodes []congest.Node, chat []*chatterNode, rounds int, seed int64) (time.Duration, uint64, congest.Stats, error) {
	for _, c := range chat {
		c.rounds = rounds
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	stats, err := congest.Run(g, nodes, congest.Config{Seed: seed})
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return elapsed, after.Mallocs - before.Mallocs, stats, err
}

// millionNodeSolve regenerates Table 16: the end-to-end memory footprint of
// generating and solving a million-client instance. Generation goes through
// the streaming two-pass CSR builder (gen.Materialize — no intermediate
// edge list ever exists), and the MemStats snapshot after the solve is the
// in-process proxy for peak RSS; the acceptance bar is staying under 4 GiB.
// The facility count is kept small (uniform generation draws m floats per
// client, so m*nc bounds generation time), which matches the paper's
// regime: few servers, a large client swarm.
func millionNodeSolve(p Params) (Table, error) {
	m, nc, k := 100, 1_000_000, 4
	if p.Quick {
		m, nc = 50, 10_000
	}
	t := Table{
		ID:    "T16",
		Title: "Generation + solve footprint at the million-node scale",
		Note: fmt.Sprintf("streamed uniform generation (m=%d, nc=%d, two-pass CSR build), one core.Solve at K=%d; heap/sys MiB are runtime.MemStats after the solve — the in-process proxy for peak RSS",
			m, nc, k),
		Columns: []string{"clients", "facilities", "edges", "gen ms", "solve ms", "rounds", "messages", "heap MiB", "sys MiB", "cost"},
	}
	runtime.GC() // settle the heap so the footprint reflects this row alone
	genStart := time.Now()
	inst, err := gen.Uniform{M: m, NC: nc, Density: 3.0 / float64(m), MinDegree: 2}.Generate(p.Seed)
	if err != nil {
		return t, err
	}
	genElapsed := time.Since(genStart)
	solveStart := time.Now()
	sol, rep, err := core.Solve(inst, core.Config{K: k}, core.WithSeed(p.Seed))
	if err != nil {
		return t, err
	}
	solveElapsed := time.Since(solveStart)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.Add(in(nc), in(m), in(inst.EdgeCount()),
		f64(float64(genElapsed.Microseconds())/1000),
		f64(float64(solveElapsed.Microseconds())/1000),
		in(rep.Net.Rounds), i64(rep.Net.Messages),
		f64(float64(ms.HeapInuse)/(1<<20)),
		f64(float64(ms.Sys)/(1<<20)),
		i64(sol.Cost(inst)))
	return t, nil
}
