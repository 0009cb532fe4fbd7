package congest

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
)

// Config controls one engine run.
type Config struct {
	// BitLimit is the maximum payload size per message in bits; 0 means
	// unlimited (the LOCAL model).
	BitLimit int
	// Seed derives every node's private random stream; the same seed yields
	// a byte-identical execution under Run and under RunShard.
	Seed int64
	// MaxRounds aborts runaway protocols. 0 means DefaultMaxRounds.
	MaxRounds int
	// Dense makes the round walk ignore Env.SleepUntil declarations: no
	// node is ever parked, so every live node runs every round and the
	// declared no-op rounds execute for real. Nothing else changes; the
	// walk, the merge and the inbox clears are the same frontier
	// bookkeeping in both modes. A sound protocol produces byte-identical
	// executions either way (invariant I5), which is what the determinism
	// matrices check, so Dense exists to pin SleepUntil declarations as
	// sound and as the baseline of the E18 sparse-rounds benchmark.
	Dense bool
	// Observer, when non-nil, is invoked after every round with the round
	// number and the messages delivered in that round, in ascending
	// sender order. The slice is reused between rounds and is only valid
	// for the duration of the call. Run only; RunShard ignores it. Used by
	// the tracing tool; nil in production runs.
	Observer func(round int, delivered []Message)
	// Faults injects message drops and node crashes; the zero value is a
	// fault-free run. Run validates the configuration and rejects
	// out-of-range probabilities, node ids, and round windows.
	Faults Faults
	// Reliable layers the per-link ack/retransmit shim under every
	// Send/Broadcast; the zero value sends unprotected.
	Reliable Reliable
	// OnLinkDown, when non-nil, receives a typed report every time the
	// reliable shim abandons a frame because its retry budget is exhausted:
	// which peer, at which round, after how many attempts. The calls happen
	// on the caller goroutine during the deterministic merge, in a
	// deterministic order. Stats.LinkDowns counts the same events.
	OnLinkDown func(LinkDownError)
}

// DefaultMaxRounds is the round budget when Config.MaxRounds is zero.
const DefaultMaxRounds = 1 << 20

// ErrRoundLimit is returned when a protocol does not halt within the round
// budget.
var ErrRoundLimit = errors.New("congest: round limit exceeded")

// Stats reports what one run cost in the model's own currency. On error
// returns (round limit, send violation) the counters — including Rounds —
// reflect the rounds actually executed before the abort.
type Stats struct {
	Rounds         int   // rounds executed (until global halt or abort)
	Messages       int64 // total protocol messages sent
	Bits           int64 // total protocol payload bits sent
	MaxMessageBits int   // largest single payload observed
	Dropped        int64 // wire transmissions lost to injected faults
	Crashed        int   // nodes halted by injected crashes
	Recovered      int   // crashed nodes restarted by the recovery schedule
	Duplicated     int64 // extra copies delivered by duplication faults
	Delayed        int64 // transmissions deferred by reordering faults
	// Link-layer traffic of the reliable-delivery shim, accounted apart
	// from the protocol's own Messages/Bits.
	Retransmits    int64 // frame retransmission attempts
	RetransmitBits int64 // payload bits spent on retransmissions
	Acks           int64 // acknowledgements transmitted
	AckBits        int64 // bits spent on acknowledgements
	// Adversarial traffic, also accounted apart from the protocol's own
	// Messages/Bits so message counts stay comparable across fault
	// schedules.
	Corrupted int64 // wire transmissions mutated by corruption faults
	Forged    int64 // byzantine rewrites and injections put on the wire
	Rejected  int64 // frames discarded as malformed, by the shim's link-layer framing check or by fail-closed protocol decoders (Env.Reject)
	LinkDowns int64 // reliable-shim frames abandoned with the retry budget exhausted (see Config.OnLinkDown for the typed per-link reports)
	// Activity accounting of the round walk; Dense runs track the same
	// quantities, so I5 comparisons cover them.
	LiveNodeRounds int64 // sum over executed rounds of the not-yet-halted node count
	Senders        int64 // node-rounds in which a node staged at least one message
	FinalLive      int   // nodes not yet halted when the run returned
}

// Run executes nodes on g until every node has halted, returning model-level
// statistics. len(nodes) must equal g.N(). Nodes are the caller's own
// values; after Run returns the caller reads results directly out of them.
//
// Run is the round kernel over the whole population [0, n) on the caller
// goroutine. The fault pipeline and the Observer hang off the kernel's
// drain, so every fault-stream draw happens in global sender order.
func Run(g *Graph, nodes []Node, cfg Config) (Stats, error) {
	if len(nodes) != g.N() {
		return Stats{}, fmt.Errorf("congest: %d nodes for graph of %d vertices", len(nodes), g.N())
	}
	if err := cfg.Faults.validate(len(nodes), nodes); err != nil {
		return Stats{}, err
	}
	if err := cfg.Reliable.validate(&cfg.Faults); err != nil {
		return Stats{}, err
	}
	maxRounds := cfg.MaxRounds
	if maxRounds == 0 {
		maxRounds = DefaultMaxRounds
	}

	g.Finalize()
	k := newKernel(g, nodes, Span{Lo: 0, Hi: len(nodes)}, cfg)
	k.observe = cfg.Observer != nil

	// Fault randomness lives on its own stream so that a Faults{} run is
	// byte-identical to a fault-free run with the same seed. The stream is
	// created whenever any fault feature is active — even schedule-only
	// configurations, which draw nothing from it — so activation never
	// depends on which fields happen to consume randomness.
	var crashed []bool
	if cfg.Faults.active() || cfg.Reliable.enabled() {
		var faultRng *rand.Rand
		if cfg.Faults.active() {
			faultRng = rand.New(rand.NewSource(nodeSeed(cfg.Seed, 1<<30)))
		}
		crashed = make([]bool, len(nodes))
		k.stagePositions(g)
		k.del = newDelivery(k, &cfg, g, faultRng, crashed)
	}

	// The crash/recovery schedules are maps; compile them once into fire
	// lists sorted by (round, id) and consume them with cursors, so rounds
	// past the last scheduled event pay nothing and no per-round walk ever
	// touches randomized map iteration order.
	var crashFires, recoverFires []fireEvent
	if len(cfg.Faults.CrashAtRound) > 0 {
		crashFires = compileFires(cfg.Faults.CrashAtRound)
		recoverFires = compileFires(cfg.Faults.RecoverAtRound)
	}
	var crashCur, recoverCur int

	for round := 0; ; round++ {
		if round >= maxRounds {
			return k.result(round, fmt.Errorf("%w (budget %d)", ErrRoundLimit, maxRounds))
		}
		for crashCur < len(crashFires) && crashFires[crashCur].at == round {
			id := int(crashFires[crashCur].id)
			crashCur++
			// A node whose crash never fired (it halted voluntarily first)
			// stays down.
			if k.halted[id] {
				continue
			}
			k.halted[id] = true
			crashed[id] = true
			k.stats.Crashed++
			k.live--
			k.fr.dropCrashed(int32(id))
			if k.del.shim != nil {
				k.del.shim.onCrash(g, id)
			}
		}
		// Recovery rejoins a crashed node with empty protocol state: the
		// environment (identity, neighbours, private rng) survives, the
		// state machine restarts.
		for recoverCur < len(recoverFires) && recoverFires[recoverCur].at == round {
			id := int(recoverFires[recoverCur].id)
			recoverCur++
			if !crashed[id] {
				continue
			}
			crashed[id] = false
			k.halted[id] = false
			k.stats.Recovered++
			k.live++
			k.fr.revive(int32(id))
			nodes[id].(Recoverable).Recover()
		}
		if k.live == 0 && !pendingFires(recoverFires[recoverCur:], crashed) {
			return k.result(round, nil)
		}
		k.stats.LiveNodeRounds += int64(k.live)

		k.compute(round)
		k.clearInboxes()
		if k.del != nil {
			k.del.beginRound(round)
		}
		if err := k.drain(round); err != nil {
			return k.result(round+1, err)
		}
		if k.del != nil {
			k.del.injectForged(round)
			k.del.finishRound(round)
		}
		if cfg.Observer != nil {
			cfg.Observer(round, k.delivered)
		}
	}
}

// fireEvent is one precompiled fault-schedule entry: the crash or recovery
// of node id at the start of round at.
type fireEvent struct {
	at int
	id int32
}

// compileFires flattens a node->round schedule map into a fire list sorted
// by (round, id) — the order the engine's per-round walk applied — consumed
// by a cursor so schedule-free rounds cost nothing.
func compileFires(sched map[int]int) []fireEvent {
	if len(sched) == 0 {
		return nil
	}
	fires := make([]fireEvent, 0, len(sched))
	for id, at := range sched { //flvet:ordered sorted by (round, id) immediately below
		fires = append(fires, fireEvent{at: at, id: int32(id)})
	}
	sort.Slice(fires, func(i, j int) bool {
		if fires[i].at != fires[j].at {
			return fires[i].at < fires[j].at
		}
		return fires[i].id < fires[j].id
	})
	return fires
}

// pendingFires keeps the run alive while a currently-crashed node has a
// recovery still ahead of it (every unconsumed fire is strictly in the
// future), even if every live node has halted.
func pendingFires(remaining []fireEvent, crashed []bool) bool {
	for _, f := range remaining {
		if crashed[f.id] {
			return true
		}
	}
	return false
}

// payloadHint sizes the per-directed-edge arena slot from the configured
// bit limit: enough for a full-size payload per neighbour per round, capped
// so unlimited (LOCAL-model) runs don't over-reserve. Overflow just means a
// private reallocation for that one node, not an error.
func payloadHint(bitLimit int) int {
	h := bitLimit / 8
	if h < 4 {
		h = 4
	}
	if h > 16 {
		h = 16
	}
	return h
}

// nodeSeed mixes the run seed with the node id (splitmix64 finalizer) so
// node streams are independent yet reproducible.
func nodeSeed(seed int64, id int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(id+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// SuggestedBitLimit returns a CONGEST-style message budget for an n-node
// network: a small constant multiple of log2(n), rounded up to whole bytes.
func SuggestedBitLimit(n int) int {
	bits := 1
	for 1<<bits < n {
		bits++
	}
	b := 4 * bits // c * log n with c = 4
	if b < 64 {
		b = 64
	}
	return ((b + 7) / 8) * 8
}
