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
// Env/arena setup, one compute walk, one drain and one inbox write
// (deliver), so they cannot drift apart (invariant I5).
type kernel struct {
	g     *Graph
	span  Span
	nodes []Node
	// envs holds the span's environments; node id's is envs[id-span.Lo].
	envs []Env
	// halted and inboxes are indexed by global node id; only span entries
	// (and, under the fault pipeline, whatever it delivers) are touched.
	// An inbox is allocated at its node's degree when its first message
	// arrives; only fault paths (duplicates, delays, forgeries) can
	// outgrow that.
	halted  []bool
	inboxes [][]Message
	// staged is the round's send buffer. The compute walk runs nodes in
	// ascending id order and Env.Send appends here, so each sender's
	// messages form one contiguous run, the runs are in ascending sender
	// order, and the drain walks them with one cursor. Under the fault
	// pipeline stagedPos[i] is staged[i]'s recipient position in the
	// sender's sorted row (the NeighborIndex order), so
	// rowStart[From]+stagedPos[i] is the message's directed-edge slot,
	// which the pipeline indexes its per-link state by; otherwise it stays
	// empty.
	staged    []Message
	stagedPos []int32
	// fr decides which nodes each round runs, drains and clears.
	fr frontier
	// dense makes the compute walk ignore SleepUntil (Config.Dense).
	dense bool
	// live counts the span's nodes not yet halted; it feeds the activity
	// stats and decides halting.
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
		g:       g,
		span:    span,
		nodes:   nodes,
		envs:    make([]Env, span.Len()),
		halted:  make([]bool, n),
		inboxes: make([][]Message, n),
		fr:      newFrontier(n, span),
		dense:   cfg.Dense,
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
			k:        k,
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
	return k
}

// stage appends one message to the send buffer; pos is its recipient's
// position in the sender's sorted row. The buffer grows by plain append:
// forcing it to double on every growth sped nothing up measurably and
// raised e2_lossy's peak heap by about 20%, because the overshoot of the
// buffer's final growth stays live for the rest of the run.
func (k *kernel) stage(msg Message, pos int) {
	k.staged = append(k.staged, msg)
	if k.del != nil {
		k.stagedPos = append(k.stagedPos, int32(pos))
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

// compute runs one round's Round calls in ascending id order over the
// active list only, compacting halters and sleepers out of it in place and
// recording the round's senders as a by-product. Under Config.Dense no node
// is parked, so every live node of the span runs every round.
func (k *kernel) compute(round int) {
	fr := &k.fr
	fr.admitWoken(round)
	fr.senders = fr.senders[:0]
	k.staged = k.staged[:0]
	k.stagedPos = k.stagedPos[:0]
	keep := fr.active[:0]
	for _, id := range fr.active {
		if k.halted[id] {
			continue
		}
		env := k.env(int(id))
		env.beginRound()
		h := k.nodes[id].Round(round, k.inboxes[id])
		if env.staged > 0 || env.sendErr != nil || env.rejected != 0 {
			fr.senders = append(fr.senders, id)
		}
		if h {
			k.halted[id] = true
			k.live--
			continue
		}
		if env.sleepUntil > round+1 && !k.dense {
			fr.park(id, env.sleepUntil)
			continue
		}
		keep = append(keep, id)
	}
	fr.active = keep
}

// clearInboxes empties exactly the inboxes the previous round filled.
func (k *kernel) clearInboxes() { k.fr.clearInboxes(k.inboxes) }

// drain is the deterministic merge: it walks the round's senders in
// ascending id order, accounts every staged message, and routes it. The
// send buffer holds each sender's messages as one run in that same order,
// so a cursor finds them. Because each sender stages at most one message
// per recipient per round (enforced by Env.Send) and senders are walked in
// id order, every local inbox comes out sorted by sender id with no
// per-inbox sort. The first recorded send violation aborts the walk; the
// Stats keep the partial accounting.
func (k *kernel) drain(round int) error {
	k.delivered = k.delivered[:0]
	k.remote = k.remote[:0]
	next := 0
	for _, id := range k.fr.senders {
		env := k.env(int(id))
		if err := k.drainEnv(round, env, next); err != nil {
			return err
		}
		next += env.staged
	}
	return nil
}

// drainEnv drains one sender's staged state — its messages, which start at
// send-buffer index first, and its rejected counter: message accounting,
// routing, and the counter's reset. A message goes to exactly one place:
// the fault pipeline when configured, else the recipient's inbox when it is
// in the span, else the remote batch.
func (k *kernel) drainEnv(round int, env *Env, first int) error {
	if env.sendErr != nil {
		return env.sendErr
	}
	msgs := k.staged[first : first+env.staged]
	if len(msgs) > 0 {
		k.stats.Senders++
	}
	for i, msg := range msgs {
		bits := msg.Bits()
		k.stats.Messages++
		k.stats.Bits += int64(bits)
		if bits > k.stats.MaxMessageBits {
			k.stats.MaxMessageBits = bits
		}
		switch {
		case k.del != nil:
			k.del.transmit(round, msg, k.g.rowStart[env.id]+int(k.stagedPos[first+i]))
		case k.span.Contains(msg.To):
			k.deliver(msg, false)
		default:
			k.remote = append(k.remote, msg)
		}
	}
	if env.rejected != 0 {
		k.stats.Rejected += env.rejected
		env.rejected = 0
	}
	return nil
}

// deliver is the engine's one inbox write. It appends msg to the
// observer's view, then, unless the recipient has halted (a message to a
// halted node is delivered to nobody but still observed and counted),
// records the recipient for next round's clear, lands msg in its inbox and
// wakes it. injected marks arrivals from outside the sender-ordered walk
// (delayed messages, retransmissions, forged injections), which are
// spliced in at their sorted position to keep the inbox born sorted.
func (k *kernel) deliver(msg Message, injected bool) {
	if k.observe {
		k.delivered = append(k.delivered, msg)
	}
	if k.halted[msg.To] {
		return
	}
	box := k.inboxes[msg.To]
	k.fr.noteRecipient(int32(msg.To), len(box) == 0)
	if cap(box) == 0 {
		box = make([]Message, 0, k.g.Degree(msg.To))
	}
	if injected {
		k.inboxes[msg.To] = insertByFrom(box, msg)
	} else {
		k.inboxes[msg.To] = append(box, msg)
	}
	k.fr.wake(int32(msg.To))
}

// ingest delivers a Transport's remote arrivals and restores the
// born-sorted invariant of the inboxes they touched: local deliveries are
// already in sender order, remote ones land behind them in transport
// order. It fails closed on traffic no faithful peer can send — a
// recipient outside the span, a sender inside it or not adjacent to the
// recipient, or a second message on one link in one round. Sender ids in
// an inbox are then unique, which is what makes the sort deterministic.
func (k *kernel) ingest(in []Message) error {
	for _, msg := range in {
		if !k.span.Contains(msg.To) {
			return fmt.Errorf("congest: transport delivered message for remote node %d to shard [%d,%d)", msg.To, k.span.Lo, k.span.Hi)
		}
		if _, ok := k.g.NeighborIndex(msg.To, msg.From); !ok || k.span.Contains(msg.From) {
			return fmt.Errorf("congest: transport delivered message to node %d from %d, which is not a remote neighbour", msg.To, msg.From)
		}
		if k.halted[msg.To] {
			continue
		}
		if i := msg.To - k.span.Lo; !k.inMark[i] {
			k.inMark[i] = true
			k.inIDs = append(k.inIDs, int32(msg.To))
		}
		k.deliver(msg, false)
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
