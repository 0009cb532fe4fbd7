package main

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"dfl/internal/congest"
	"dfl/internal/core"
	"dfl/internal/fl"
	"dfl/internal/transport/udp"
)

// solver runs and checks the timed solves of one workload instance.
type solver struct {
	w    workload
	inst *fl.Instance
	cfg  core.Config
	seed int64
	heap *heapWatch
	// ref is the in-process solution a fleet solve must reproduce.
	ref *fl.Solution
	// cost is the certified cost of the first solve; a fixed seed must
	// repeat it exactly.
	cost int64
}

type sample struct {
	solveS  float64
	peakMiB float64
}

// outcome is what one solve hands back to be checked and traced.
type outcome struct {
	sol    *fl.Solution
	rep    *core.Report
	t0, t1 time.Time
	// rounds holds the wall time at which each round ended: the observer
	// callback in process, the last shard's Gather return in a fleet.
	// Only traced solves record it.
	rounds           []time.Time
	fenced, rejected int64
	err              error
}

// timedSolve makes solve number id: a GC to start from a settled heap, the
// timed call, then the checks and (when tr is set) the spans, both outside
// the timed window.
func (s *solver) timedSolve(id int, tr *tracer) (sample, error) {
	runtime.GC()
	s.heap.reset()
	before := readRuntime()
	root := tr.newID()
	done := make(chan outcome, 1) // buffered: a timed-out solve must not block forever
	go func() {
		if s.w.shards > 0 {
			done <- s.fleet(id, tr, root)
		} else {
			done <- s.inProcess(tr != nil)
		}
	}()
	var o outcome
	select {
	case o = <-done:
	case <-time.After(solveTimeout):
		return sample{}, fmt.Errorf("solve timed out after %v", solveTimeout)
	}
	after := readRuntime()
	peak := max(s.heap.peak.Load(), after.live)
	if o.err != nil {
		return sample{}, o.err
	}
	if err := s.check(id, tr, o); err != nil {
		return sample{}, err
	}
	if tr != nil {
		tr.roundSpans(id, root, o.t0, o.t1, o.rounds)
		tr.record(id, root, -1, "solve", o.t0, o.t1, solveAttrs(o, before, after, peak))
		if err := s.timeGraphBuild(id, tr); err != nil {
			return sample{}, err
		}
	}
	return sample{solveS: o.t1.Sub(o.t0).Seconds(), peakMiB: mib(int64(peak))}, nil
}

func (s *solver) inProcess(observe bool) outcome {
	opts := append([]core.Option{core.WithSeed(s.seed)}, s.w.opts...)
	var rounds []time.Time
	if observe {
		rounds = make([]time.Time, 0, 256)
		opts = append(opts, core.WithObserver(func(int, []congest.Message) {
			rounds = append(rounds, time.Now())
		}))
	}
	t0 := time.Now()
	sol, rep, err := core.Solve(s.inst, s.cfg, opts...)
	t1 := time.Now()
	return outcome{sol: sol, rep: rep, t0: t0, t1: t1, rounds: rounds, err: err}
}

// reference solves the instance in process, untimed, for the fleet
// comparison.
func (s *solver) reference() (*fl.Solution, error) {
	sol, rep, err := core.Solve(s.inst, s.cfg, core.WithSeed(s.seed))
	if err != nil {
		return nil, err
	}
	if err := core.Certify(s.inst, sol, rep); err != nil {
		return nil, err
	}
	return sol, nil
}

// check re-validates a solution outside the timed window: fl.Validate,
// core.Certify, the reported cost, the cost of earlier solves of the same
// seed, and for a fleet the in-process reference.
func (s *solver) check(id int, tr *tracer, o outcome) error {
	t0 := time.Now()
	err := fl.Validate(s.inst, o.sol)
	t1 := time.Now()
	tr.add(id, -1, "fl.validate", t0, t1, nil)
	if err != nil {
		return fmt.Errorf("validate: %w", err)
	}
	err = core.Certify(s.inst, o.sol, o.rep)
	t2 := time.Now()
	tr.add(id, -1, "core.certify", t1, t2, nil)
	if err != nil {
		return fmt.Errorf("certify: %w", err)
	}
	if c := o.sol.Cost(s.inst); c != o.rep.Cost {
		return fmt.Errorf("solution costs %d but the report says %d", c, o.rep.Cost)
	}
	if s.cost == 0 {
		s.cost = o.rep.Cost
	} else if o.rep.Cost != s.cost {
		return fmt.Errorf("cost %d differs from %d of an earlier solve with the same seed", o.rep.Cost, s.cost)
	}
	if s.ref != nil {
		if err := sameSolution(s.inst, s.ref, o.sol); err != nil {
			return fmt.Errorf("fleet differs from in-process solve: %w", err)
		}
	}
	return nil
}

// timeGraphBuild times, outside the solve, the communication-graph build
// that opens every solve's prelude, so the prelude can be split.
func (s *solver) timeGraphBuild(id int, tr *tracer) error {
	t0 := time.Now()
	g, err := congest.Bipartite(s.inst.M(), s.inst.NC(), func(yield func(i, j int) bool) {
		for i := 0; i < s.inst.M(); i++ {
			for _, e := range s.inst.FacilityEdges(i) {
				if !yield(i, e.To) {
					return
				}
			}
		}
	})
	if err != nil {
		return fmt.Errorf("build graph: %w", err)
	}
	g.Finalize()
	tr.add(id, -1, "congest.graph_build", t0, time.Now(), nil)
	return nil
}

func sameSolution(inst *fl.Instance, want, got *fl.Solution) error {
	if w, g := want.Cost(inst), got.Cost(inst); w != g {
		return fmt.Errorf("cost %d, want %d", g, w)
	}
	if !slices.Equal(want.Open, got.Open) {
		return errors.New("open facilities differ")
	}
	if !slices.Equal(want.Assign, got.Assign) {
		return errors.New("assignments differ")
	}
	return nil
}

// fleet solves the instance with an in-process gateway and w.shards UDP
// shards on loopback sockets, timed from gateway bind to Assemble return.
func (s *solver) fleet(id int, tr *tracer, root int) outcome {
	k := s.w.shards
	m, nc := s.inst.M(), s.inst.NC()
	spans := congest.SplitSpans(m+nc, k)
	t0 := time.Now()
	o := outcome{t0: t0}
	d, err := core.Derive(s.inst, s.cfg)
	if err != nil {
		o.err = err
		return o
	}
	gw, err := udp.NewGateway("127.0.0.1:0", spans, udp.Config{})
	if err != nil {
		o.err = err
		return o
	}
	defer gw.Close()

	runs := make([]shardRun, k)
	var wg sync.WaitGroup
	for i := range spans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[i].run(s, i, spans, gw.Addr(), id, tr, root)
		}()
	}
	gs := time.Now()
	res, err := gw.Run(d.TotalRounds + 8)
	tr.add(id, root, "udp.gateway_run", gs, time.Now(), nil)
	if err != nil {
		gw.Close() // unblock shards still waiting on the gateway
		wg.Wait()
		o.err = fmt.Errorf("gateway: %w", err)
		return o
	}
	wg.Wait()
	for i := range runs {
		if runs[i].err != nil {
			o.err = fmt.Errorf("shard %d: %w", i, runs[i].err)
			return o
		}
		o.fenced += runs[i].fenced
	}
	frags := make([]*core.Fragment, k)
	for i, p := range res.Fragments {
		if p == nil {
			o.err = fmt.Errorf("shard %d was declared down", i)
			return o
		}
		ds := time.Now()
		frags[i], err = core.DecodeFragment(p, m, nc)
		tr.add(id, root, "core.fragment_decode", ds, time.Now(), nil)
		if err != nil {
			o.err = fmt.Errorf("shard %d fragment: %w", i, err)
			return o
		}
	}
	as := time.Now()
	o.sol, o.rep, o.err = core.Assemble(s.inst, s.cfg, frags)
	o.t1 = time.Now()
	tr.add(id, root, "core.assemble", as, o.t1, nil)
	o.fenced += res.Fenced
	o.rejected = res.Rejected
	if tr != nil {
		o.rounds = roundEnds(runs)
	}
	return o
}

// shardRun is one fleet shard's goroutine and what it reports.
type shardRun struct {
	fenced int64
	// gathered holds the wall time each round's Gather returned.
	gathered []time.Time
	err      error
}

func (r *shardRun) run(s *solver, i int, spans []congest.Span, gwAddr string, id int, tr *tracer, root int) {
	shardSpan := tr.newID()
	start := time.Now()
	defer func() {
		tr.record(id, shardSpan, root, "udp.shard", start, time.Now(), nil)
	}()
	sh, err := udp.Dial(i, len(spans), gwAddr, udp.Config{}, nil)
	tr.add(id, shardSpan, "udp.dial", start, time.Now(), nil)
	if err != nil {
		r.err = err
		return
	}
	defer sh.Close()

	var transport congest.Transport = sh
	solveSpan := tr.newID()
	entry := time.Now()
	if tr != nil {
		transport = &timedTransport{next: sh, tr: tr, solve: id, parent: solveSpan, entry: entry, run: r}
	}
	frag, err := core.SolveShard(s.inst, s.cfg, spans[i], s.seed, transport)
	tr.record(id, solveSpan, shardSpan, "core.solve_shard", entry, time.Now(), nil)
	if err != nil {
		r.err = err
		return
	}
	es := time.Now()
	body := frag.Encode(nil)
	ss := time.Now()
	tr.add(id, shardSpan, "core.fragment_encode", es, ss, nil)
	err = sh.SendResult(body)
	tr.add(id, shardSpan, "udp.send_result", ss, time.Now(), nil)
	if err != nil {
		r.err = err
		return
	}
	r.fenced = sh.Fenced()
}

// timedTransport records a span around every call the engine makes into a
// shard's transport, and the first call's start as the end of shard setup.
type timedTransport struct {
	next          congest.Transport
	tr            *tracer
	solve, parent int
	entry         time.Time
	began         bool
	run           *shardRun
}

func (t *timedTransport) Begin(round int) (congest.RoundStart, error) {
	t0 := time.Now()
	if !t.began {
		t.began = true
		t.tr.add(t.solve, t.parent, "core.shard_setup", t.entry, t0, nil)
	}
	rs, err := t.next.Begin(round)
	t.tr.add(t.solve, t.parent, "udp.begin", t0, time.Now(), nil)
	return rs, err
}

func (t *timedTransport) Send(round int, msgs []congest.Message) error {
	t0 := time.Now()
	err := t.next.Send(round, msgs)
	t.tr.add(t.solve, t.parent, "udp.send", t0, time.Now(), nil)
	return err
}

func (t *timedTransport) Gather(round int, allHalted bool) ([]congest.Message, error) {
	t0 := time.Now()
	msgs, err := t.next.Gather(round, allHalted)
	t1 := time.Now()
	t.tr.add(t.solve, t.parent, "udp.gather", t0, t1, nil)
	t.run.gathered = append(t.run.gathered, t1)
	return msgs, err
}

// roundEnds takes a fleet round as ended when its last shard's Gather
// returned.
func roundEnds(runs []shardRun) []time.Time {
	var ends []time.Time
	for _, r := range runs {
		for i, t := range r.gathered {
			if i == len(ends) {
				ends = append(ends, t)
			} else if t.After(ends[i]) {
				ends[i] = t
			}
		}
	}
	return ends
}

// solveAttrs are the counts recorded on a traced solve's root span.
func solveAttrs(o outcome, before, after runtimeSnap, peak uint64) map[string]float64 {
	rep := o.rep
	exempt := len(rep.DeadClients) + len(rep.UnservableClients) + len(rep.ByzantineClients) +
		len(rep.DeceivedClients) + len(rep.OrphanedClients)
	return map[string]float64{
		"core.rounds":              float64(rep.Net.Rounds),
		"core.open_facilities":     float64(rep.OpenFacilities),
		"core.repaired_clients":    float64(rep.RepairedClients),
		"core.exempt_clients":      float64(exempt),
		"congest.messages":         float64(rep.Net.Messages),
		"congest.bits":             float64(rep.Net.Bits),
		"congest.live_node_rounds": float64(rep.Net.LiveNodeRounds),
		"congest.senders":          float64(rep.Net.Senders),
		"congest.dropped":          float64(rep.Net.Dropped),
		"congest.retransmits":      float64(rep.Net.Retransmits),
		"congest.acks":             float64(rep.Net.Acks),
		"udp.fenced":               float64(o.fenced),
		"udp.rejected":             float64(o.rejected),
		"go.alloc_mib":             mib(int64(after.allocs - before.allocs)),
		"go.gc_cycles":             float64(after.cycles - before.cycles),
		"go.gc_cpu_s":              after.gcCPU - before.gcCPU,
		"peak_heap_mib":            mib(int64(peak)),
	}
}
