package core

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"dfl/internal/congest"
)

// TestDenseEngineMatchesFrontier pins the protocol's dormancy declarations
// (the SleepUntil calls in nodes.go) as sound: the frontier scheduler
// must reproduce the dense reference engine's
// execution exactly, down to the per-round observer stream, under honest,
// lossy, crash-with-recovery, and corrupt+byzantine schedules. Any node
// that oversleeps a round in which it would have changed state, sent, or
// drawn randomness shows up here as a diverging trace or report.
//
// Each schedule also carries a golden pin, recorded from the dense
// reference before its separate walk was folded into the frontier walk:
// the full Report.Net, the cost, and an FNV-64a digest of the observer
// stream. The dense run must still equal it, which holds the shared walk's
// own bookkeeping (senders, rejects, halts) to its recorded past.
func TestDenseEngineMatchesFrontier(t *testing.T) {
	inst := chaosInstance(t)
	cfg := Config{K: 16}

	schedules := []struct {
		name   string
		opts   []Option
		net    congest.Stats
		cost   int64
		digest uint64
	}{
		{
			name:   "honest",
			net:    congest.Stats{Rounds: 71, Messages: 1142, Bits: 24704, MaxMessageBits: 64, LiveNodeRounds: 5100, Senders: 186},
			cost:   48523,
			digest: 0x8a5814580fa58f07,
		},
		{
			name: "drop",
			opts: []Option{WithFaults(congest.Faults{DropProb: 0.3})},
			net: congest.Stats{Rounds: 71, Messages: 2515, Bits: 102296, MaxMessageBits: 64, Dropped: 614,
				LiveNodeRounds: 5100, Senders: 635},
			cost:   64593,
			digest: 0x609f3c1eb2a6476b,
		},
		{
			name: "crash_recover",
			opts: []Option{WithFaults(congest.Faults{
				CrashAtRound:   map[int]int{5: 11, 14: 13},
				RecoverAtRound: map[int]int{5: 23},
			})},
			net: congest.Stats{Rounds: 71, Messages: 1443, Bits: 43960, MaxMessageBits: 64, Crashed: 2, Recovered: 1,
				LiveNodeRounds: 5030, Senders: 273},
			cost:   48049,
			digest: 0xd7e4e74ba6b4fab5,
		},
		{
			name: "corrupt_byzantine",
			opts: []Option{WithCorruption(0.2), WithByzantine(0, 2, 7)},
			net: congest.Stats{Rounds: 71, Messages: 1770, Bits: 60856, MaxMessageBits: 64,
				Corrupted: 263, Forged: 3291, Rejected: 206, LiveNodeRounds: 5100, Senders: 394},
			cost:   50520,
			digest: 0xaee8dcd15d9f0432,
		},
	}

	type trace struct {
		sol    []int
		open   []bool
		report Report
		stream []string
	}
	run := func(sc []Option, dense bool) trace {
		var stream []string
		opts := append([]Option{WithSeed(31), WithDenseEngine(dense),
			WithObserver(func(round int, delivered []congest.Message) {
				for _, m := range delivered {
					stream = append(stream, fmt.Sprintf("r%d %d>%d %x", round, m.From, m.To, m.Payload))
				}
			})}, sc...)
		sol, rep, err := Solve(inst, cfg, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return trace{sol: sol.Assign, open: sol.Open, report: *rep, stream: stream}
	}

	for _, sc := range schedules {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			dense := run(sc.opts, true)
			if len(dense.stream) == 0 {
				t.Fatal("schedule too tame: nothing observed")
			}
			if dense.report.Net != sc.net {
				t.Errorf("dense Net differs from the golden pin:\n got %#v\nwant %#v", dense.report.Net, sc.net)
			}
			if dense.report.Cost != sc.cost {
				t.Errorf("dense cost = %d, want golden %d", dense.report.Cost, sc.cost)
			}
			h := fnv.New64a()
			for _, line := range dense.stream {
				fmt.Fprintln(h, line)
			}
			if d := h.Sum64(); d != sc.digest {
				t.Errorf("dense observer digest = %#x, want golden %#x", d, sc.digest)
			}
			check := func(label string, got trace) {
				if !reflect.DeepEqual(got.sol, dense.sol) || !reflect.DeepEqual(got.open, dense.open) {
					t.Fatalf("%s: solution diverged from dense reference", label)
				}
				if !reflect.DeepEqual(got.report, dense.report) {
					t.Fatalf("%s: report diverged:\n%+v\n%+v", label, got.report, dense.report)
				}
				if fmt.Sprint(got.stream) != fmt.Sprint(dense.stream) {
					t.Fatalf("%s: observer stream diverged (%d vs %d deliveries)",
						label, len(got.stream), len(dense.stream))
				}
			}
			check("frontier", run(sc.opts, false))
		})
	}
}
