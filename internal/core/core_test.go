package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dfl/internal/congest"
	"dfl/internal/fl"
	"dfl/internal/gen"
	"dfl/internal/lp"
	"dfl/internal/seq"
)

func mustInstance(t *testing.T, fac []int64, nc int, edges []fl.RawEdge) *fl.Instance {
	t.Helper()
	inst, err := fl.New("t", fac, nc, edges)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func tiny(t *testing.T) *fl.Instance {
	t.Helper()
	return mustInstance(t, []int64{10, 4}, 3, []fl.RawEdge{
		{Facility: 0, Client: 0, Cost: 1},
		{Facility: 0, Client: 1, Cost: 2},
		{Facility: 0, Client: 2, Cost: 9},
		{Facility: 1, Client: 1, Cost: 1},
		{Facility: 1, Client: 2, Cost: 2},
	})
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"k zero", Config{K: 0}, false},
		{"k negative", Config{K: -2}, false},
		{"negative slack", Config{K: 1, Slack: -1}, false},
		{"minimal", Config{K: 1}, true},
		{"typical", Config{K: 16}, true},
		{"explicit knobs", Config{K: 9, ItersPerPhase: 5, Slack: 3}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Derive(tinyForConfig(t), tt.cfg)
			if (err == nil) != tt.ok {
				t.Fatalf("Derive err = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func tinyForConfig(t *testing.T) *fl.Instance {
	t.Helper()
	return mustInstance(t, []int64{3}, 1, []fl.RawEdge{{Facility: 0, Client: 0, Cost: 1}})
}

func TestDeriveShape(t *testing.T) {
	inst, err := gen.Uniform{M: 20, NC: 50}.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 4, 9, 16, 25, 100} {
		d, err := Derive(inst, Config{K: k})
		if err != nil {
			t.Fatal(err)
		}
		wantPhases := isqrtCeil(k)
		if d.Phases != wantPhases {
			t.Errorf("K=%d: phases = %d, want %d", k, d.Phases, wantPhases)
		}
		if d.ItersPerPhase != wantPhases {
			t.Errorf("K=%d: iters = %d, want %d", k, d.ItersPerPhase, wantPhases)
		}
		if d.ProtoRounds != 4*d.Phases*d.ItersPerPhase {
			t.Errorf("K=%d: proto rounds = %d", k, d.ProtoRounds)
		}
		if d.TotalRounds != d.ProtoRounds+cleanupRounds {
			t.Errorf("K=%d: total rounds = %d", k, d.TotalRounds)
		}
		if d.Chi < 2 {
			t.Errorf("K=%d: chi = %d", k, d.Chi)
		}
		// chi^phases must cover m*rho.
		cover := int64(1)
		for p := 0; p < d.Phases; p++ {
			cover = fl.MulSat(cover, d.Chi)
		}
		if cover < fl.MulSat(int64(inst.M()), d.Rho) {
			t.Errorf("K=%d: chi^phases = %d < m*rho", k, cover)
		}
	}
}

func TestDeriveChiDecreasesWithK(t *testing.T) {
	inst, err := gen.Uniform{M: 50, NC: 100}.Generate(2)
	if err != nil {
		t.Fatal(err)
	}
	var prev int64 = 1 << 62
	for _, k := range []int{1, 4, 16, 64, 256} {
		d, err := Derive(inst, Config{K: k})
		if err != nil {
			t.Fatal(err)
		}
		if d.Chi > prev {
			t.Fatalf("chi grew with K: %d -> %d at K=%d", prev, d.Chi, k)
		}
		prev = d.Chi
	}
}

func TestThresholdSchedule(t *testing.T) {
	d := Derived{Chi: 10, Base: 3, Phases: 4}
	want := []int64{30, 300, 3000, 30000}
	for p, w := range want {
		if got := d.Threshold(p); got != w {
			t.Errorf("Threshold(%d) = %d, want %d", p, got, w)
		}
	}
}

func TestSolveTinyFeasibleAndDecent(t *testing.T) {
	inst := tiny(t)
	for _, k := range []int{1, 4, 16, 64} {
		sol, rep, err := Solve(inst, Config{K: k}, WithSeed(7))
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if err := fl.Validate(inst, sol); err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		cost := sol.Cost(inst)
		if cost < 18 || cost > 22 {
			t.Errorf("K=%d: cost = %d, want within [OPT=18, open-all=22]", k, cost)
		}
		if rep.Net.Rounds != rep.Derived.TotalRounds {
			t.Errorf("K=%d: rounds = %d, derived total %d", k, rep.Net.Rounds, rep.Derived.TotalRounds)
		}
	}
}

func TestSolveInfeasible(t *testing.T) {
	inst := mustInstance(t, []int64{5}, 2, []fl.RawEdge{{Facility: 0, Client: 0, Cost: 1}})
	if _, _, err := Solve(inst, Config{K: 4}); err == nil {
		t.Fatal("want infeasibility error")
	}
}

func TestSolveDeterministicPerSeed(t *testing.T) {
	inst, err := gen.Uniform{M: 15, NC: 60}.Generate(4)
	if err != nil {
		t.Fatal(err)
	}
	s1, r1, err := Solve(inst, Config{K: 9}, WithSeed(123))
	if err != nil {
		t.Fatal(err)
	}
	s2, r2, err := Solve(inst, Config{K: 9}, WithSeed(123))
	if err != nil {
		t.Fatal(err)
	}
	if s1.Cost(inst) != s2.Cost(inst) || r1.Net != r2.Net {
		t.Fatal("same seed produced different runs")
	}
	for j := range s1.Assign {
		if s1.Assign[j] != s2.Assign[j] {
			t.Fatalf("assignment differs at client %d", j)
		}
	}
}

// TestSolveParallelMatchesSequential: the instance solved as 2 and 8
// concurrent shards over a ChanNetwork and assembled reproduces Solve's
// cost, assignment and protocol-level message accounting.
func TestSolveParallelMatchesSequential(t *testing.T) {
	inst, err := gen.Uniform{M: 14, NC: 70, Density: 0.35, MinDegree: 1}.Generate(21)
	if err != nil {
		t.Fatal(err)
	}
	ss, rs, err := Solve(inst, Config{K: 16}, WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 8} {
		sp, rp := solveSharded(t, inst, Config{K: 16}, 8, k)
		if ss.Cost(inst) != sp.Cost(inst) || rs.Net.Messages != rp.Net.Messages || rs.Net.Bits != rp.Net.Bits {
			t.Fatalf("k=%d: sharded run diverged: cost %d vs %d, net %+v vs %+v",
				k, ss.Cost(inst), sp.Cost(inst), rs.Net, rp.Net)
		}
		for j := range ss.Assign {
			if ss.Assign[j] != sp.Assign[j] {
				t.Fatalf("k=%d: assignment differs at client %d", k, j)
			}
		}
	}
}

func TestSolveRoundsIndependentOfN(t *testing.T) {
	// The headline claim: rounds depend on K, not on network size.
	var rounds []int
	for _, nc := range []int{50, 200, 800} {
		inst, err := gen.Uniform{M: 10, NC: nc}.Generate(3)
		if err != nil {
			t.Fatal(err)
		}
		_, rep, err := Solve(inst, Config{K: 16}, WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		rounds = append(rounds, rep.Net.Rounds)
	}
	if rounds[0] != rounds[1] || rounds[1] != rounds[2] {
		t.Fatalf("rounds varied with n: %v", rounds)
	}
}

func TestSolveRespectsBitLimit(t *testing.T) {
	inst, err := gen.Uniform{M: 20, NC: 100}.Generate(8)
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := Solve(inst, Config{K: 16}, WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	limit := 64 // suggested limit for this n is at least 64 bits
	if rep.Net.MaxMessageBits > limit {
		t.Fatalf("max message bits %d exceeds CONGEST budget %d", rep.Net.MaxMessageBits, limit)
	}
	// Messages are tiny varints; the largest is the OFFER.
	if rep.Net.MaxMessageBits > 8*8 {
		t.Fatalf("max message bits %d larger than an offer payload", rep.Net.MaxMessageBits)
	}
}

func TestSolveQualitySandwich(t *testing.T) {
	// Distributed cost must sit between exact OPT and never exceed the
	// analytical factor times OPT on small instances (I3, I4).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := rng.Intn(5) + 1
		nc := rng.Intn(8) + 1
		fac := make([]int64, m)
		for i := range fac {
			fac[i] = rng.Int63n(50)
		}
		var edges []fl.RawEdge
		for j := 0; j < nc; j++ {
			perm := rng.Perm(m)
			for _, i := range perm[:rng.Intn(m)+1] {
				edges = append(edges, fl.RawEdge{Facility: i, Client: j, Cost: rng.Int63n(40) + 1})
			}
		}
		inst, err := fl.New("prop", fac, nc, edges)
		if err != nil {
			return false
		}
		opt, err := seq.Exact(inst)
		if err != nil {
			return false
		}
		optCost := opt.Cost(inst)
		for _, k := range []int{1, 4, 16} {
			sol, _, err := Solve(inst, Config{K: k}, WithSeed(seed))
			if err != nil {
				t.Logf("seed %d K=%d: %v", seed, k, err)
				return false
			}
			if fl.Validate(inst, sol) != nil {
				return false
			}
			if sol.Cost(inst) < optCost {
				t.Logf("seed %d K=%d: cost %d < OPT %d", seed, k, sol.Cost(inst), optCost)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveAboveLPBoundOnFamilies(t *testing.T) {
	gens := map[string]gen.Generator{
		"uniform":   gen.Uniform{M: 15, NC: 80},
		"sparse":    gen.Uniform{M: 15, NC: 80, Density: 0.2, MinDegree: 2},
		"euclidean": gen.Euclidean{M: 15, NC: 80},
		"clustered": gen.Clustered{M: 15, NC: 80, Clusters: 4},
		"setcover":  gen.SetCoverLike{NC: 64, Sets: 8, NestedTrap: true},
		"star":      gen.Star{M: 8, NC: 50},
	}
	for name, g := range gens {
		t.Run(name, func(t *testing.T) {
			inst, err := g.Generate(17)
			if err != nil {
				t.Fatal(err)
			}
			lb, err := lp.LowerBound(inst)
			if err != nil {
				t.Fatal(err)
			}
			sol, rep, err := Solve(inst, Config{K: 16}, WithSeed(17))
			if err != nil {
				t.Fatal(err)
			}
			if err := fl.Validate(inst, sol); err != nil {
				t.Fatal(err)
			}
			cost := sol.Cost(inst)
			if cost < lb {
				t.Fatalf("cost %d below LP bound %d", cost, lb)
			}
			// Loose sanity ceiling: the measured ratio should sit well
			// below the analytical worst case on benign instances.
			bound := rep.Derived.TheoreticalFactor()
			if ratio := float64(cost) / float64(lb); ratio > bound*10 {
				t.Fatalf("ratio %.2f wildly above analytical shape %.2f", ratio, bound)
			}
		})
	}
}

func TestMoreRoundsNoWorseOnAverage(t *testing.T) {
	// The trade-off direction: averaged over seeds, K=64 should not be
	// worse than K=1 on a star instance where symmetry breaking matters.
	inst, err := gen.Uniform{M: 30, NC: 150}.Generate(23)
	if err != nil {
		t.Fatal(err)
	}
	avg := func(k int) float64 {
		var total int64
		const runs = 7
		for s := int64(0); s < runs; s++ {
			sol, _, err := Solve(inst, Config{K: k}, WithSeed(s))
			if err != nil {
				t.Fatal(err)
			}
			total += sol.Cost(inst)
		}
		return float64(total) / runs
	}
	lo, hi := avg(1), avg(64)
	if hi > lo*1.25 {
		t.Fatalf("K=64 average cost %.0f much worse than K=1 %.0f", hi, lo)
	}
}

func TestCleanupHandlesPathologicalSlack(t *testing.T) {
	// With zero iterations the protocol does nothing and cleanup must still
	// produce a feasible (if poor) solution.
	inst := tiny(t)
	sol, rep, err := Solve(inst, Config{K: 1, ItersPerPhase: 1, Slack: 1}, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := fl.Validate(inst, sol); err != nil {
		t.Fatal(err)
	}
	if rep.CleanupClients < 0 || rep.CleanupClients > inst.NC() {
		t.Fatalf("cleanup clients = %d", rep.CleanupClients)
	}
}

func TestDeterministicPrioritiesAblation(t *testing.T) {
	inst, err := gen.Star{M: 10, NC: 60}.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	sol, _, err := Solve(inst, Config{K: 16, DeterministicPriorities: true}, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := fl.Validate(inst, sol); err != nil {
		t.Fatal(err)
	}
}

func TestReportAccounting(t *testing.T) {
	inst, err := gen.Uniform{M: 10, NC: 40}.Generate(2)
	if err != nil {
		t.Fatal(err)
	}
	sol, rep, err := Solve(inst, Config{K: 9}, WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.OpenFacilities != sol.OpenCount() {
		t.Fatalf("report open %d != solution open %d", rep.OpenFacilities, sol.OpenCount())
	}
	if rep.Net.Messages <= 0 || rep.Net.Bits <= 0 {
		t.Fatalf("missing traffic accounting: %+v", rep.Net)
	}
	if rep.CleanupFacilities > rep.OpenFacilities {
		t.Fatalf("cleanup facilities %d > open %d", rep.CleanupFacilities, rep.OpenFacilities)
	}
}

func TestTheoreticalFactorShape(t *testing.T) {
	d1 := Derived{Chi: 100, Phases: 1}
	d2 := Derived{Chi: 10, Phases: 2}
	if d1.TheoreticalFactor() <= d2.TheoreticalFactor() {
		t.Fatal("factor at K=1 should exceed factor at K=4 for same m*rho")
	}
}

func TestWireOfferRoundTrip(t *testing.T) {
	for _, class := range []int{0, 1, 7, 100} {
		for _, fine := range []int{0, 5, 63} {
			for _, prio := range []uint32{0, 1, 255, 1 << 16, 1<<32 - 1} {
				p := encodeOffer(nil, class, fine, prio)
				gotClass, gotFine, gotPrio, err := decodeOffer(p)
				if err != nil {
					t.Fatalf("class %d fine %d prio %d: %v", class, fine, prio, err)
				}
				if gotClass != class || gotFine != fine || gotPrio != prio {
					t.Fatalf("round trip (%d,%d,%d) -> (%d,%d,%d)",
						class, fine, prio, gotClass, gotFine, gotPrio)
				}
			}
		}
	}
	if _, _, _, err := decodeOffer([]byte{kindGrant, 1, 1, 1}); err == nil {
		t.Fatal("wrong kind must fail")
	}
	if _, _, _, err := decodeOffer([]byte{kindOffer, 1}); err == nil {
		t.Fatal("truncated offer must fail")
	}
	if _, _, _, err := decodeOffer([]byte{kindOffer, 1, 70, 1}); err == nil {
		t.Fatal("out-of-range fine class must fail")
	}
	if _, _, _, err := decodeOffer(nil); err == nil {
		t.Fatal("empty payload must fail")
	}
}

func TestFineGrainedTieBreakHelpsCoarseClasses(t *testing.T) {
	// Clustered instances at moderate K have coarse chi-classes that mix
	// cheap cluster centres with expensive fillers; the fine tie-break
	// should never lose and typically wins there.
	inst, err := gen.Clustered{M: 12, NC: 40, Clusters: 3}.Generate(11)
	if err != nil {
		t.Fatal(err)
	}
	avg := func(fine bool) float64 {
		var total int64
		const runs = 5
		for s := int64(0); s < runs; s++ {
			sol, _, err := Solve(inst, Config{K: 25, FineGrainedTieBreak: fine}, WithSeed(s))
			if err != nil {
				t.Fatal(err)
			}
			if err := fl.Validate(inst, sol); err != nil {
				t.Fatal(err)
			}
			total += sol.Cost(inst)
		}
		return float64(total) / runs
	}
	coarse, fine := avg(false), avg(true)
	if fine > coarse*1.05 {
		t.Fatalf("fine tie-break made things worse: %.0f vs %.0f", fine, coarse)
	}
}

func TestIsqrtCeil(t *testing.T) {
	tests := []struct{ k, w int }{
		{0, 0}, {1, 1}, {2, 2}, {4, 2}, {5, 3}, {9, 3}, {10, 4}, {16, 4}, {100, 10},
	}
	for _, tt := range tests {
		if got := isqrtCeil(tt.k); got != tt.w {
			t.Errorf("isqrtCeil(%d) = %d, want %d", tt.k, got, tt.w)
		}
	}
}

func TestSolveLocalModeUnlimitedMessages(t *testing.T) {
	// BitLimit 0 is the LOCAL model: same protocol, no size policing.
	inst, err := gen.Uniform{M: 10, NC: 40}.Generate(12)
	if err != nil {
		t.Fatal(err)
	}
	a, ra, err := Solve(inst, Config{K: 9}, WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	b, rb, err := Solve(inst, Config{K: 9}, WithSeed(6), WithBitLimit(0))
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost(inst) != b.Cost(inst) || ra.Net.Messages != rb.Net.Messages {
		t.Fatal("bit limit changed a compliant run")
	}
}

func TestSolveTightBitLimitRejected(t *testing.T) {
	// An 8-bit budget cannot carry an OFFER; the engine must abort loudly
	// rather than run a silently-wrong protocol.
	inst, err := gen.Uniform{M: 6, NC: 20}.Generate(13)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Solve(inst, Config{K: 9}, WithSeed(6), WithBitLimit(8)); err == nil {
		t.Fatal("want engine bit-limit violation")
	}
}

// TestObserverParallelSeesSameTraffic: on a fault-free run the observer
// sees every protocol message exactly once, under the frontier scheduler
// and the dense reference alike.
func TestObserverParallelSeesSameTraffic(t *testing.T) {
	inst, err := gen.Uniform{M: 8, NC: 30}.Generate(14)
	if err != nil {
		t.Fatal(err)
	}
	count := func(dense bool) (int64, int64) {
		var n int64
		_, rep, err := Solve(inst, Config{K: 9}, WithSeed(2), WithDenseEngine(dense),
			WithObserver(func(round int, delivered []congest.Message) {
				n += int64(len(delivered))
			}))
		if err != nil {
			t.Fatal(err)
		}
		return n, rep.Net.Messages
	}
	a, msgs := count(false)
	if a != msgs {
		t.Fatalf("observer saw %d deliveries, run sent %d messages", a, msgs)
	}
	if b, _ := count(true); a != b {
		t.Fatalf("observer traffic differs: %d vs %d", a, b)
	}
}
