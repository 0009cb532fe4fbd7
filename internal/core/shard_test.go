package core

import (
	"fmt"
	"sync"
	"testing"

	"dfl/internal/congest"
	"dfl/internal/fl"
	"dfl/internal/gen"
)

// solveSharded runs the instance split into k shards over an in-process
// ChanNetwork, round-trips each fragment through the wire codec, and
// assembles the result.
func solveSharded(t *testing.T, inst *fl.Instance, cfg Config, seed int64, k int) (*fl.Solution, *Report) {
	t.Helper()
	n := inst.M() + inst.NC()
	spans := congest.SplitSpans(n, k)
	net, err := congest.NewChanNetwork(n, spans)
	if err != nil {
		t.Fatal(err)
	}
	frags := make([]*Fragment, len(spans))
	errs := make([]error, len(spans))
	var wg sync.WaitGroup
	for si, span := range spans {
		wg.Add(1)
		go func(si int, span congest.Span) {
			defer wg.Done()
			frags[si], errs[si] = SolveShard(inst, cfg, span, seed, net.Shard(si))
		}(si, span)
	}
	wg.Wait()
	for si, err := range errs {
		if err != nil {
			t.Fatalf("shard %d: %v", si, err)
		}
		// Ship every fragment through the wire codec, as a fleet does.
		if frags[si], err = DecodeFragment(frags[si].Encode(nil), inst.M(), inst.NC()); err != nil {
			t.Fatalf("shard %d: decode: %v", si, err)
		}
	}
	sol, rep, err := Assemble(inst, cfg, frags)
	if err != nil {
		t.Fatal(err)
	}
	return sol, rep
}

// TestSolveShardMatchesSolve is the distributed analogue of the
// parallel-vs-sequential parity test: a fault-free sharded run over a
// transport must reproduce Solve's solution — same cost, same open set,
// same assignment, same protocol-level message accounting — at every shard
// count.
func TestSolveShardMatchesSolve(t *testing.T) {
	inst, err := gen.Uniform{M: 12, NC: 50, Density: 0.4, MinDegree: 1}.Generate(6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{K: 16}
	ss, rs, err := Solve(inst, cfg, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 3, 7} {
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			sp, rp := solveSharded(t, inst, cfg, 9, k)
			if ss.Cost(inst) != sp.Cost(inst) {
				t.Errorf("cost diverged: %d vs %d", ss.Cost(inst), sp.Cost(inst))
			}
			for i := range ss.Open {
				if ss.Open[i] != sp.Open[i] {
					t.Errorf("open set differs at facility %d", i)
				}
			}
			for j := range ss.Assign {
				if ss.Assign[j] != sp.Assign[j] {
					t.Errorf("assignment differs at client %d", j)
				}
			}
			if rs.Net.Messages != rp.Net.Messages || rs.Net.Bits != rp.Net.Bits {
				t.Errorf("net accounting diverged: %d msgs/%d bits vs %d msgs/%d bits",
					rs.Net.Messages, rs.Net.Bits, rp.Net.Messages, rp.Net.Bits)
			}
			if rs.Net.LiveNodeRounds != rp.Net.LiveNodeRounds || rs.Net.Senders != rp.Net.Senders {
				t.Errorf("activity accounting diverged: %d live node-rounds/%d senders vs %d/%d",
					rs.Net.LiveNodeRounds, rs.Net.Senders, rp.Net.LiveNodeRounds, rp.Net.Senders)
			}
			if rs.CleanupClients != rp.CleanupClients || rs.RepairedClients != rp.RepairedClients ||
				rs.CleanupFacilities != rp.CleanupFacilities || rs.OpenFacilities != rp.OpenFacilities {
				t.Errorf("report accounting diverged: %+v vs %+v", rs, rp)
			}
		})
	}
}

func TestFragmentCodecRoundTrip(t *testing.T) {
	inst, err := gen.Uniform{M: 5, NC: 12}.Generate(3)
	if err != nil {
		t.Fatal(err)
	}
	n := inst.M() + inst.NC()
	spans := congest.SplitSpans(n, 3)
	net, err := congest.NewChanNetwork(n, spans)
	if err != nil {
		t.Fatal(err)
	}
	frags := make([]*Fragment, len(spans))
	var wg sync.WaitGroup
	for si, span := range spans {
		wg.Add(1)
		go func(si int, span congest.Span) {
			defer wg.Done()
			frags[si], _ = SolveShard(inst, Config{K: 4}, span, 7, net.Shard(si))
		}(si, span)
	}
	wg.Wait()
	for si, frag := range frags {
		if frag == nil {
			t.Fatalf("shard %d produced no fragment", si)
		}
		wire := frag.Encode(nil)
		back, err := DecodeFragment(wire, inst.M(), inst.NC())
		if err != nil {
			t.Fatalf("shard %d: decode: %v", si, err)
		}
		if frag.Stats.LiveNodeRounds == 0 || frag.Stats.Senders == 0 {
			t.Fatalf("shard %d: activity counters empty, the round trip checks nothing: %+v", si, frag.Stats)
		}
		if fmt.Sprintf("%+v", back) != fmt.Sprintf("%+v", frag) {
			t.Fatalf("shard %d: round trip diverged:\n got  %+v\n want %+v", si, back, frag)
		}
	}
}

func TestFragmentDecodeFailClosed(t *testing.T) {
	frag := &Fragment{Span: congest.Span{Lo: 0, Hi: 3}, Facilities: []FacilityState{
		{Done: true, Open: true}, {Done: true}, {Done: true},
	}}
	wire := frag.Encode(nil)
	if _, err := DecodeFragment(wire, 3, 2); err != nil {
		t.Fatalf("valid fragment rejected: %v", err)
	}
	cases := map[string][]byte{
		"empty":          {},
		"truncated":      wire[:len(wire)-1],
		"trailing":       append(append([]byte(nil), wire...), 0),
		"spare flag bit": append(append([]byte(nil), wire[:len(wire)-1]...), 0x80),
	}
	// Span beyond the node range.
	bad := &Fragment{Span: congest.Span{Lo: 4, Hi: 6}, Clients: []ClientState{{Done: true}, {Done: true}}}
	cases["span out of range"] = bad.Encode(nil)
	// Assignment outside the facility range.
	badAssign := &Fragment{Span: congest.Span{Lo: 3, Hi: 4}, Clients: []ClientState{{Done: true, Assigned: 3}}}
	cases["assigned out of range"] = badAssign.Encode(nil)
	for name, p := range cases {
		if _, err := DecodeFragment(p, 3, 2); err == nil {
			t.Errorf("%s: decoder accepted malformed fragment %x", name, p)
		}
	}
}

// TestAssembleMasksDownShard pins the degradation contract: when a whole
// shard's fragment is missing (its flnode died and the gateway declared it
// down), Assemble masks its facilities dead and its clients dead, masks
// surviving clients committed to those facilities as orphaned, and the
// result still certifies.
func TestAssembleMasksDownShard(t *testing.T) {
	inst, err := gen.Uniform{M: 8, NC: 30, Density: 0.6, MinDegree: 2}.Generate(11)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{K: 8}
	n := inst.M() + inst.NC()
	spans := congest.SplitSpans(n, 4)
	net, err := congest.NewChanNetwork(n, spans)
	if err != nil {
		t.Fatal(err)
	}
	frags := make([]*Fragment, len(spans))
	var wg sync.WaitGroup
	for si, span := range spans {
		wg.Add(1)
		go func(si int, span congest.Span) {
			defer wg.Done()
			frags[si], _ = SolveShard(inst, cfg, span, 5, net.Shard(si))
		}(si, span)
	}
	wg.Wait()
	// Drop the first shard post-hoc: the run itself was healthy, so
	// surviving clients may hold assignments into the lost span — the
	// worst case for assembly.
	lost := frags[0].Span
	frags[0] = nil
	sol, rep, err := Assemble(inst, cfg, frags)
	if err != nil {
		t.Fatal(err)
	}
	wantDeadF := 0
	for i := 0; i < inst.M(); i++ {
		if lost.Contains(i) {
			wantDeadF++
			if sol.Open[i] {
				t.Errorf("facility %d on the lost shard is open", i)
			}
		}
	}
	if len(rep.DeadFacilities) != wantDeadF {
		t.Errorf("DeadFacilities = %v, want %d entries from span %+v", rep.DeadFacilities, wantDeadF, lost)
	}
	for _, j := range rep.OrphanedClients {
		if sol.Assign[j] != fl.Unassigned {
			t.Errorf("orphaned client %d still assigned to %d", j, sol.Assign[j])
		}
	}
	// Certify already ran inside Assemble; run it once more from the
	// outside to make the guarantee explicit in the test.
	if err := Certify(inst, sol, rep); err != nil {
		t.Errorf("assembled solution with a down shard failed certification: %v", err)
	}
}

func TestAssembleRejectsOverlap(t *testing.T) {
	inst, err := gen.Uniform{M: 3, NC: 4}.Generate(2)
	if err != nil {
		t.Fatal(err)
	}
	a := &Fragment{Span: congest.Span{Lo: 0, Hi: 2}, Facilities: []FacilityState{{Done: true}, {Done: true}}}
	b := &Fragment{Span: congest.Span{Lo: 1, Hi: 3}, Facilities: []FacilityState{{Done: true}, {Done: true}}}
	if _, _, err := Assemble(inst, Config{K: 4}, []*Fragment{a, b}); err == nil {
		t.Fatal("Assemble accepted overlapping fragments")
	}
	short := &Fragment{Span: congest.Span{Lo: 0, Hi: 3}, Facilities: []FacilityState{{Done: true}}}
	if _, _, err := Assemble(inst, Config{K: 4}, []*Fragment{short}); err == nil {
		t.Fatal("Assemble accepted a fragment with missing records")
	}
}
