package congest

import (
	"cmp"
	"fmt"
	"slices"
)

// kernel is the engine's one round executor: the nodes of a contiguous id
// span with their environments, inboxes and frontier. Run drives a kernel
// over every node [0, n) and hands its drain to the fault pipeline when one
// is configured; RunShard drives one over its shard's span and stages
// out-of-span messages for its Transport. Both runners thus share one
// Env/arena setup, one compute walk and one drain, so they cannot drift
// apart (invariant I5).
type kernel struct {
	span  Span
	nodes []Node
	// envs holds the span's environments; node id's is envs[id-span.Lo].
	envs []Env
	// halted and inboxes are indexed by global node id; only span entries
	// (and, under the fault pipeline, whatever it delivers) are touched.
	halted  []bool
	inboxes [][]Message
	// fr is the frontier scheduler's state; nil in dense mode.
	fr *frontier
	// live counts the span's nodes not yet halted. Both schedulers maintain
	// it; it feeds the activity stats and the frontier's halt detection.
	live  int
	stats Stats

	// Drain routing. del, when set, takes every staged message (Run's fault
	// pipeline). Otherwise a message addressed inside the span lands in its
	// recipient's inbox and any other is staged in remote for the Transport.
	del       *delivery
	remote    []Message
	observe   bool
	delivered []Message // Observer's per-round view, reused across rounds

	// inMark/inIDs track which inboxes took remote arrivals this round, so
	// ingest re-sorts only those. inMark is indexed by id-span.Lo and is
	// allocated only by RunShard.
	inMark []bool
	inIDs  []int32
}

// newKernel initializes the nodes of span on the frozen graph g. All Env
// state is laid out up front in flat blocks partitioned by the CSR row
// offsets — the Env structs, the once-per-neighbour generation stamps (one
// slot per directed edge) and the two payload arenas — so a round walks
// contiguous memory and steady-state rounds allocate nothing.
func newKernel(g *Graph, nodes []Node, span Span, cfg Config) *kernel {
	n := g.N()
	k := &kernel{
		span:    span,
		nodes:   nodes,
		envs:    make([]Env, span.Len()),
		halted:  make([]bool, n),
		inboxes: make([][]Message, n),
		live:    span.Len(),
	}
	base := g.rowStart[span.Lo]
	dir := g.rowStart[span.Hi] - base
	hint := payloadHint(cfg.BitLimit)
	genAll := make([]uint64, dir)
	arenaAll := make([]byte, dir*hint)
	prevAll := make([]byte, dir*hint)
	for id := span.Lo; id < span.Hi; id++ {
		s, e := g.rowStart[id]-base, g.rowStart[id+1]-base
		env := &k.envs[id-span.Lo]
		*env = Env{
			id:       id,
			graph:    g,
			seed:     nodeSeed(cfg.Seed, id),
			bitLimit: cfg.BitLimit,
			sentGen:  genAll[s:e:e],
			// gen starts at 1 so a zero-valued sentGen slot never collides
			// with a live generation.
			gen: 1,
			// Full-length capacity, zero length: append fills the node's own
			// slot and reallocates privately only if the slot overflows,
			// never spilling into a neighbour's region.
			arena:     arenaAll[s*hint : s*hint : e*hint],
			prevArena: prevAll[s*hint : s*hint : e*hint],
		}
		nodes[id].Init(env)
	}
	if !cfg.Dense {
		k.fr = newFrontier(n, span)
	}
	return k
}

// stagePositions gives every env of the span an outPos view into one flat
// block with a slot per directed edge, partitioned by the CSR offsets like
// sentGen, so Env.Send stages each message's sorted-row position for the
// fault pipeline without allocating.
func (k *kernel) stagePositions(g *Graph) {
	base := g.rowStart[k.span.Lo]
	all := make([]int32, g.rowStart[k.span.Hi]-base)
	for i := range k.envs {
		id := k.span.Lo + i
		s, e := g.rowStart[id]-base, g.rowStart[id+1]-base
		k.envs[i].outPos = all[s:s:e]
	}
}

// env returns node id's environment.
func (k *kernel) env(id int) *Env { return &k.envs[id-k.span.Lo] }

// result stamps the round count and live total onto the stats of a run
// that ends (or aborts) with rounds executed.
func (k *kernel) result(rounds int, err error) (Stats, error) {
	k.stats.Rounds = rounds
	k.stats.FinalLive = k.live
	return k.stats, err
}

// compute runs one round's Round calls in ascending id order. The frontier
// walk runs only the active nodes, compacting halters and sleepers out of
// the sorted list in place and recording the round's senders as a
// by-product; the dense walk runs every live node of the span.
func (k *kernel) compute(round int) {
	fr := k.fr
	if fr == nil {
		for id := k.span.Lo; id < k.span.Hi; id++ {
			if k.halted[id] {
				continue
			}
			k.env(id).beginRound()
			if k.nodes[id].Round(round, k.inboxes[id]) {
				k.halted[id] = true
				k.live--
			}
		}
		return
	}
	fr.admitWoken(round)
	fr.senders = fr.senders[:0]
	keep := fr.active[:0]
	for _, id := range fr.active {
		if k.halted[id] {
			continue
		}
		env := k.env(int(id))
		env.beginRound()
		h := k.nodes[id].Round(round, k.inboxes[id])
		if len(env.out) > 0 || env.sendErr != nil || env.rejected != 0 {
			fr.senders = append(fr.senders, id)
		}
		if h {
			k.halted[id] = true
			k.live--
			continue
		}
		if env.sleepUntil > round+1 {
			fr.park(id, env.sleepUntil)
			continue
		}
		keep = append(keep, id)
	}
	fr.active = keep
}

// clearInboxes empties the inboxes the previous round filled: exactly last
// round's recipients under the frontier, the whole span in dense mode.
func (k *kernel) clearInboxes() {
	if k.fr != nil {
		k.fr.clearInboxes(k.inboxes)
		return
	}
	for id := k.span.Lo; id < k.span.Hi; id++ {
		k.inboxes[id] = k.inboxes[id][:0]
	}
}

// drain is the deterministic merge: it walks the round's senders in
// ascending id order (the frontier's sender list, or the whole span in
// dense mode), accounts every staged message, and routes it. Because each
// sender stages at most one message per recipient per round (enforced by
// Env.Send) and senders are walked in id order, every local inbox comes out
// sorted by sender id with no per-inbox sort. The first recorded send
// violation aborts the walk; the Stats keep the partial accounting.
func (k *kernel) drain(round int) error {
	k.delivered = k.delivered[:0]
	k.remote = k.remote[:0]
	if k.fr != nil {
		for _, id := range k.fr.senders {
			if err := k.drainEnv(round, k.env(int(id))); err != nil {
				return err
			}
		}
		return nil
	}
	for i := range k.envs {
		if err := k.drainEnv(round, &k.envs[i]); err != nil {
			return err
		}
	}
	return nil
}

// drainEnv drains one sender's staged state: message accounting, routing,
// and the env's out/rejected resets. A message goes to exactly one place:
// the fault pipeline when configured, else the recipient's inbox when it is
// in the span, else the remote batch.
func (k *kernel) drainEnv(round int, env *Env) error {
	if env.sendErr != nil {
		return env.sendErr
	}
	if len(env.out) > 0 {
		k.stats.Senders++
	}
	for i, msg := range env.out {
		bits := msg.Bits()
		k.stats.Messages++
		k.stats.Bits += int64(bits)
		if bits > k.stats.MaxMessageBits {
			k.stats.MaxMessageBits = bits
		}
		switch {
		case k.del != nil:
			k.del.transmit(round, msg, env.graph.rowStart[env.id]+int(env.outPos[i]))
		case k.span.Contains(msg.To):
			if k.observe {
				k.delivered = append(k.delivered, msg)
			}
			k.deliver(msg)
		default:
			k.remote = append(k.remote, msg)
		}
	}
	// A node that halts this round may have sent final messages; drain them
	// so they are not re-counted on later rounds.
	env.out = env.out[:0]
	env.outPos = env.outPos[:0]
	if env.rejected != 0 {
		k.stats.Rejected += env.rejected
		env.rejected = 0
	}
	return nil
}

// deliver appends msg to its recipient's inbox and wakes the recipient.
// Messages to halted nodes are delivered to nobody but still counted.
func (k *kernel) deliver(msg Message) {
	if k.halted[msg.To] {
		return
	}
	if k.fr != nil {
		k.fr.noteRecipient(int32(msg.To), len(k.inboxes[msg.To]) == 0)
	}
	k.inboxes[msg.To] = append(k.inboxes[msg.To], msg)
	if k.fr != nil {
		k.fr.wake(int32(msg.To))
	}
}

// ingest delivers a Transport's remote arrivals and restores the
// born-sorted invariant of the inboxes they touched: local deliveries are
// already in sender order, remote ones land behind them in transport
// order. It fails closed on traffic no faithful peer can send — a
// recipient outside the span, a sender inside it or not adjacent to the
// recipient, or a second message on one link in one round. Sender ids in
// an inbox are then unique, which is what makes the sort deterministic.
func (k *kernel) ingest(g *Graph, in []Message) error {
	for _, msg := range in {
		if !k.span.Contains(msg.To) {
			return fmt.Errorf("congest: transport delivered message for remote node %d to shard [%d,%d)", msg.To, k.span.Lo, k.span.Hi)
		}
		if _, ok := g.NeighborIndex(msg.To, msg.From); !ok || k.span.Contains(msg.From) {
			return fmt.Errorf("congest: transport delivered message to node %d from %d, which is not a remote neighbour", msg.To, msg.From)
		}
		if k.halted[msg.To] {
			continue
		}
		if i := msg.To - k.span.Lo; !k.inMark[i] {
			k.inMark[i] = true
			k.inIDs = append(k.inIDs, int32(msg.To))
		}
		k.deliver(msg)
	}
	for _, id := range k.inIDs {
		k.inMark[int(id)-k.span.Lo] = false
		box := k.inboxes[id]
		slices.SortFunc(box, func(a, b Message) int { return cmp.Compare(a.From, b.From) })
		for j := 1; j < len(box); j++ {
			if box[j].From == box[j-1].From {
				return fmt.Errorf("congest: transport delivered two messages from %d to node %d in one round", box[j].From, id)
			}
		}
	}
	k.inIDs = k.inIDs[:0]
	return nil
}
