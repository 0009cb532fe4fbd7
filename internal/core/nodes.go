package core

import (
	"math/bits"
	"slices"
	"sort"

	"dfl/internal/congest"
	"dfl/internal/fl"
)

// Node ids in the communication graph: facility i is node i, client j is
// node m+j. The sub-round layout inside one offer/grant/open iteration:
//
//	sub 0  clients  process CONNECT from the previous iteration,
//	                broadcast DONE once connected
//	sub 1  facilities  process DONE, compute best star under the phase
//	                threshold, send OFFER(priority) to the star's clients
//	sub 2  clients  pick the best OFFER, send GRANT
//	sub 3  facilities  process GRANTs; if the granted star still clears
//	                slack * threshold, open and send CONNECT
//
// After Derived.ProtoRounds rounds, a fixed seven-round tail (see the
// cleanupRounds layout in config.go) connects every remaining client to its
// cheapest facility and runs the self-healing repair pass.

// facilityNode is facility i's state machine.
//
// The hot path is the best-star computation: the sequential reference
// rescanned (and reallocated) the full edge list on every offer iteration.
// Here the node keeps a dense per-edge-position activity index instead of
// hash sets, caches the compacted active prefix (positions + the implied
// cost-prefix sums) together with the resulting best star, and invalidates
// that cache only when the active set actually changes — a DONE or a
// CONNECT removing a client, which are the only events that can move the
// best star (opening charges change only inside connect, which also
// invalidates). Iterations between invalidations reuse the cached star at
// zero scan cost, and recomputations reuse the scratch buffers, so the
// steady state allocates nothing.
//
// Per-edge state is struct-of-arrays: newFacilityNodes lays out one flat
// array per field for the whole run, partitioned by the instance's
// facility-edge CSR offsets, and each node holds subslice views into its
// own region. The old per-node map (posOf: client node id -> edge
// position) is a sorted-id array plus binary search (edgePos), so message
// decode stays O(log degree) without any hashing or per-node allocation.
type facilityNode struct {
	inst *fl.Instance
	idx  int // facility index == node id
	cfg  Config
	d    Derived

	env *congest.Env
	// Edge list split by field, ascending cost, immutable after
	// construction: edgeNode[p] is the client node id at position p,
	// edgeCost[p] its connection cost.
	edgeNode []int32
	edgeCost []int64
	// posOf replacement: nodeSorted lists the incident client node ids in
	// ascending order and posAt the edge position of each; edgePos binary
	// searches them.
	nodeSorted []int32
	posAt      []int32
	active     []bool // by edge position: client still unconnected, as far as i knows
	open       bool
	copies     int // open copies (soft-capacitated mode; open == copies > 0)
	load       int // clients connected through this facility

	// Cached best star over the active clients; valid while !starDirty.
	starDirty bool
	starPos   []int32 // edge positions of active clients, ascending cost (reused scratch)
	bestLen   int     // prefix of starPos forming the best star; 0 = no active client
	bestNum   int64   // best-star effectiveness numerator (cost + opening charge)
	bestDen   int64   // best-star effectiveness denominator (= star size)
	bestClass int     // quantized class of the best star; -1 = above every threshold

	offeredAt  []bool  // by edge position: offered in the current iteration
	offeredPos []int32 // positions offered this iteration (for O(|offered|) reset)
	offerClass int     // class of the star offered this iteration
	granted    []int32 // scratch: client node ids granted this iteration
	buf        []byte

	// sentry is the sender-quarantine layer (see quarantine.go); nil unless
	// the run's fault schedule includes corruption or byzantine nodes.
	sentry *sentry

	// openedInCleanup reports whether the facility opened only during
	// cleanup, openedInRepair only during the repair pass (used by the
	// report).
	openedInCleanup bool
	openedInRepair  bool
	// done is set when the facility completes its final round; a node that
	// never gets there was crashed by a fault schedule and its state must
	// not reach the solution.
	done bool
}

var (
	_ congest.Node        = (*facilityNode)(nil)
	_ congest.Recoverable = (*facilityNode)(nil)
)

// facBufCap is each facility's slot in the shared encode-buffer block; the
// largest payload it encodes (an OFFER) is maxOfferBits/8 = 10 bytes, so a
// slot never reallocates.
const facBufCap = 16

// newFacilityNodes builds every facility state machine over one shared
// struct-of-arrays allocation: a handful of flat arrays sized by the
// instance's total facility-edge count, partitioned by the facility-edge
// CSR offsets. Node i's views cover its own contiguous region (capacity
// clamped by three-index slicing, so a pathological overflow reallocates
// privately instead of corrupting a neighbour's region). This replaces
// O(m) separate map/slice allocations with O(1) large ones and keeps each
// facility's whole working set on adjacent cache lines.
func newFacilityNodes(inst *fl.Instance, cfg Config, d Derived) []*facilityNode {
	m := inst.M()
	total := 0
	for i := 0; i < m; i++ {
		total += len(inst.FacilityEdges(i))
	}
	var (
		store      = make([]facilityNode, m)
		out        = make([]*facilityNode, m)
		edgeNode   = make([]int32, total)
		edgeCost   = make([]int64, total)
		nodeSorted = make([]int32, total)
		posAt      = make([]int32, total)
		active     = make([]bool, total)
		offeredAt  = make([]bool, total)
		starPos    = make([]int32, total)
		offeredPos = make([]int32, total)
		granted    = make([]int32, total)
		bufAll     = make([]byte, m*facBufCap)
	)
	off := 0
	for i := 0; i < m; i++ {
		fes := inst.FacilityEdges(i)
		s, e := off, off+len(fes)
		f := &store[i]
		*f = facilityNode{
			inst:       inst,
			idx:        i,
			cfg:        cfg,
			d:          d,
			edgeNode:   edgeNode[s:e:e],
			edgeCost:   edgeCost[s:e:e],
			nodeSorted: nodeSorted[s:e:e],
			posAt:      posAt[s:e:e],
			active:     active[s:e:e],
			offeredAt:  offeredAt[s:e:e],
			starDirty:  true,
			starPos:    starPos[s:s:e],
			offeredPos: offeredPos[s:s:e],
			granted:    granted[s:s:e],
			buf:        bufAll[i*facBufCap : i*facBufCap : (i+1)*facBufCap],
		}
		for p, ed := range fes { // already sorted by ascending cost
			node := int32(m + ed.To)
			f.edgeNode[p] = node
			f.edgeCost[p] = ed.Cost
			f.nodeSorted[p] = node
			f.posAt[p] = int32(p)
			f.active[p] = true
		}
		sort.Sort(nodePosSort{f.nodeSorted, f.posAt})
		out[i] = f
		off = e
	}
	return out
}

// newFacilityNode builds the single facility i (test helper; production
// runs use the batch struct-of-arrays constructor directly).
func newFacilityNode(inst *fl.Instance, i int, cfg Config, d Derived) *facilityNode {
	return newFacilityNodes(inst, cfg, d)[i]
}

// nodePosSort co-sorts a facility's (nodeSorted, posAt) pair by node id.
type nodePosSort struct{ nodes, pos []int32 }

func (s nodePosSort) Len() int           { return len(s.nodes) }
func (s nodePosSort) Less(i, j int) bool { return s.nodes[i] < s.nodes[j] }
func (s nodePosSort) Swap(i, j int) {
	s.nodes[i], s.nodes[j] = s.nodes[j], s.nodes[i]
	s.pos[i], s.pos[j] = s.pos[j], s.pos[i]
}

// edgePos returns the edge position of the given client node id, the
// struct-of-arrays replacement for the old posOf map.
func (f *facilityNode) edgePos(node int) (int, bool) {
	k, ok := slices.BinarySearch(f.nodeSorted, int32(node))
	if !ok {
		return 0, false
	}
	return int(f.posAt[k]), true
}

// deactivate removes one client from the active set and invalidates the
// cached best star. It is the only way the active set shrinks.
func (f *facilityNode) deactivate(node int) {
	pos, ok := f.edgePos(node)
	if !ok || !f.active[pos] {
		return
	}
	f.active[pos] = false
	f.starDirty = true
}

func (f *facilityNode) Init(env *congest.Env) { f.env = env }

// Recover resets the facility to its post-Init state after an injected
// crash: every client is active again, the facility is closed and empty.
// The environment (identity, neighbours, rng) survives in the engine.
func (f *facilityNode) Recover() {
	for pos := range f.active {
		f.active[pos] = true
	}
	f.open, f.copies, f.load = false, 0, 0
	f.starDirty = true
	for _, pos := range f.offeredPos {
		f.offeredAt[pos] = false
	}
	f.offeredPos = f.offeredPos[:0]
	f.offerClass = 0
	f.granted = f.granted[:0]
	f.openedInCleanup, f.openedInRepair, f.done = false, false, false
	// The sentry survives the restart like the engine's link-layer state:
	// quarantine models the node's network stack, not protocol state.
}

func (f *facilityNode) Round(r int, inbox []congest.Message) bool {
	if f.sentry != nil {
		inbox = f.screenFacility(inbox)
	}
	if r >= f.d.ProtoRounds {
		return f.cleanupRound(r, inbox)
	}
	switch r % 4 {
	case 1:
		f.processDone(inbox)
		f.makeOffer(r)
		f.declareOfferSleep(r)
	case 3:
		f.processGrants(r, inbox)
		// Next action round is the following makeOffer; the DONE-collection
		// round in between only matters when DONEs actually arrive, and an
		// arrival wakes us.
		f.env.SleepUntil(r + 2)
	}
	return false
}

// declareOfferSleep tells the engine how long the facility's rounds are
// provably no-ops after an offer decision (see congest.Env.SleepUntil; a
// dense run ignores it, which is what pins the declarations as sound). The rules mirror makeOffer's early returns: having offered, the
// only upcoming work is the GRANT round at r+2. Having not offered, nothing
// happens on an empty inbox until the first offer round of the phase whose
// threshold admits the cached star — phases advance with the round number
// alone, and every input of the star cache can change only via a message,
// which wakes us. A star above every threshold (bestClass < 0) or an empty
// active set can become eligible only through a message too, so those sleep
// to the cleanup tail. The tail bound is P+3, the beacon broadcast every
// facility owes; the FORCE-answer round P+1 is message-driven and a FORCE
// wakes us for it.
//
// Soundness of the RNG stream: makeOffer draws a priority only after its
// early returns, each node owns a private stream, and the declaration
// covers exactly rounds where makeOffer would early-return (phaseOf is
// monotone in r), so skipped rounds draw nothing in the dense run either.
func (f *facilityNode) declareOfferSleep(r int) {
	if len(f.offeredPos) > 0 {
		f.env.SleepUntil(r + 2)
		return
	}
	wake := f.d.ProtoRounds + 3
	if f.bestLen > 0 && f.bestClass > f.phaseOf(r) {
		if at := 4*f.bestClass*f.d.ItersPerPhase + 1; at < wake {
			wake = at
		}
	}
	f.env.SleepUntil(wake)
}

func (f *facilityNode) processDone(inbox []congest.Message) {
	for _, msg := range inbox {
		if len(msg.Payload) == 1 && msg.Payload[0] == kindDone {
			f.deactivate(msg.From)
		}
	}
}

// phaseOf maps a protocol round to its threshold phase.
func (f *facilityNode) phaseOf(r int) int {
	iter := r / 4
	p := iter / f.d.ItersPerPhase
	if p >= f.d.Phases {
		p = f.d.Phases - 1
	}
	return p
}

// makeOffer quantizes the facility's BEST star against active clients into
// its effectiveness class and, if the current phase has reached that class,
// offers exactly that star. Offering the best prefix (rather than any
// prefix within the class) is what keeps the distributed run tracking the
// sequential greedy: a facility never claims clients beyond the point that
// minimizes its cost-effectiveness. The class rides along in the OFFER so
// clients can prefer better stars.
//
// The star is served from the incremental cache: recomputeBestStar runs
// only after an invalidation (a DONE or CONNECT shrank the active set),
// otherwise the iteration reuses the cached prefix verbatim.
func (f *facilityNode) makeOffer(r int) {
	for _, pos := range f.offeredPos {
		f.offeredAt[pos] = false
	}
	f.offeredPos = f.offeredPos[:0]
	if f.starDirty {
		f.recomputeBestStar()
	}
	if f.bestLen == 0 || f.bestClass < 0 || f.bestClass > f.phaseOf(r) {
		return // no star, or not yet eligible in this phase
	}
	f.offerClass = f.bestClass
	var prio uint32
	if f.cfg.DeterministicPriorities {
		prio = uint32(f.idx)
	} else {
		prio = f.env.Rand().Uint32()
	}
	fine := bits.Len64(uint64(f.bestNum / f.bestDen))
	payload := encodeOffer(f.buf, f.bestClass, fine, prio)
	f.buf = payload
	for _, pos := range f.starPos[:f.bestLen] {
		f.offeredAt[pos] = true
		f.offeredPos = append(f.offeredPos, pos)
		f.env.Send(int(f.edgeNode[pos]), payload)
	}
}

// recomputeBestStar rebuilds the cached best star: one scan over the
// cost-sorted edge list compacts the active positions into starPos while
// tracking the prefix minimizing (openingCharge + cost-prefix sum) / size.
// In uncapacitated mode the opening charge is f once (zero if already
// open); in soft-capacitated mode every copy the prefix spills into is
// charged again. The resulting star and its quantized class stay valid
// until the active set changes, because every input of this scan — the
// active flags, open/load/copies, the thresholds — is constant in between.
func (f *facilityNode) recomputeBestStar() {
	f.starDirty = false
	f.starPos = f.starPos[:0]
	f.bestLen, f.bestNum, f.bestDen, f.bestClass = 0, 0, 0, -1
	var sum, t int64
	for pos := range f.edgeNode {
		if !f.active[pos] {
			continue
		}
		f.starPos = append(f.starPos, int32(pos))
		sum = fl.AddSat(sum, f.edgeCost[pos])
		t++
		total := fl.AddSat(sum, f.openingCharge(int(t)))
		if f.bestLen == 0 || fl.RatioLess(total, t, f.bestNum, f.bestDen) {
			f.bestNum, f.bestDen = total, t
			f.bestLen = len(f.starPos)
		}
	}
	if f.bestLen == 0 {
		return
	}
	for q := 0; q < f.d.Phases; q++ {
		if fl.RatioLessEq(f.bestNum, f.bestDen, f.d.Threshold(q), 1) {
			f.bestClass = q
			return
		}
	}
}

// openingCharge returns what connecting `extra` additional clients costs
// in opening fees: f once in uncapacitated mode (zero when already open),
// or one f per newly required copy in soft-capacitated mode.
func (f *facilityNode) openingCharge(extra int) int64 {
	fi := f.inst.FacilityCost(f.idx)
	if f.cfg.SoftCapacity <= 0 {
		if f.open {
			return 0
		}
		return fi
	}
	newCopies := fl.CopiesNeeded(f.load+extra, f.cfg.SoftCapacity) - f.copies
	if newCopies < 0 {
		newCopies = 0
	}
	return fl.MulSat(int64(newCopies), fi)
}

// processGrants opens the facility if the granted sub-star is still within
// slack of the phase threshold, and connects the granted clients.
func (f *facilityNode) processGrants(r int, inbox []congest.Message) {
	granted := f.granted[:0]
	var sum int64
	lastGrant := -1
	for _, msg := range inbox {
		if len(msg.Payload) != 1 || msg.Payload[0] != kindGrant {
			continue
		}
		// Wire duplicates arrive adjacent (inboxes are sorted by sender), so
		// a repeated sender marks a duplication artifact, not new evidence.
		dup := msg.From == lastGrant
		lastGrant = msg.From
		pos, ok := f.edgePos(msg.From)
		if !ok || !f.offeredAt[pos] {
			// Stale, duplicated, or forged grant. A grant that answers no
			// live offer is soft evidence against the sender: honest clients
			// only grant what was offered, but drop/delay faults can strand
			// an honest grant too, so condemnation takes a threshold.
			if f.sentry != nil && !dup {
				f.sentry.suspect(msg.From, 1, staleGrantThreshold)
			}
			continue
		}
		// Consuming the offer slot makes a duplicated GRANT (wire-level
		// duplication fault) indistinguishable from a stale one.
		f.offeredAt[pos] = false
		granted = append(granted, int32(msg.From))
		sum = fl.AddSat(sum, f.edgeCost[pos])
	}
	f.granted = granted
	if len(granted) == 0 {
		return
	}
	// The opening budget is tied to the class the offer was made at, not
	// the phase threshold, so late phases cannot launder bad stars.
	budget := fl.MulSat(fl.MulSat(f.d.Threshold(f.offerClass), f.cfg.Slack), int64(len(granted)))
	if fl.AddSat(f.openingCharge(len(granted)), sum) > budget {
		return // the star shrank too much; clients time out and stay active
	}
	f.connect(granted)
}

// connect commits a set of clients: accounts copies/load, marks the
// facility open, and sends CONNECT.
func (f *facilityNode) connect(nodes []int32) {
	f.load += len(nodes)
	if f.cfg.SoftCapacity > 0 {
		if need := fl.CopiesNeeded(f.load, f.cfg.SoftCapacity); need > f.copies {
			f.copies = need
		}
	} else if f.copies == 0 {
		f.copies = 1
	}
	f.open = true
	for _, node := range nodes {
		f.deactivate(int(node))
		f.env.Send(int(node), payloadConnect)
	}
}

// cleanupRound handles the fixed tail (see the cleanupRounds layout in
// config.go): answer FORCE at P+1, broadcast the repair beacon at P+3,
// settle repair joins and forces at P+5, then halt.
func (f *facilityNode) cleanupRound(r int, inbox []congest.Message) bool {
	switch rr := r - f.d.ProtoRounds; {
	case rr < 3:
		if rr == 1 {
			f.connectForced(inbox, kindForce, &f.openedInCleanup)
		}
		// Until the beacon round the facility only answers FORCEs, and a
		// FORCE wakes it; the beacon broadcast at P+3 is unconditional.
		f.env.SleepUntil(f.d.ProtoRounds + 3)
	case rr == 3:
		// Proof of life plus open status: clients decide the repair pass
		// entirely from these beacons, so a crashed facility (no beacon)
		// and a recovered-but-closed one (closed beacon) both trigger
		// reassignment.
		b := encodeBeacon(f.buf, f.open)
		f.buf = b
		f.env.Broadcast(b)
		// The repair settle at P+5 must run (it commits done and halts).
		f.env.SleepUntil(f.d.ProtoRounds + 5)
	case rr == 4:
		f.env.SleepUntil(f.d.ProtoRounds + 5)
	case rr >= 5:
		// rr > 5 only happens to a facility recovered after the repair
		// settle: it halts immediately, without done, so the masking pass
		// treats it as dead.
		if rr == 5 {
			f.processRepair(inbox)
			f.done = true
		}
		return true
	}
	return false
}

// connectForced opens for the clients that forced this facility and
// connects them. Wire-level duplicates arrive adjacent (inboxes are sorted
// by sender) and are folded, which keeps connect's one-send-per-client
// contract intact. The granted scratch is free in the cleanup tail, so the
// forced list reuses it.
func (f *facilityNode) connectForced(inbox []congest.Message, kind byte, openedFlag *bool) {
	forced := f.granted[:0]
	for _, msg := range inbox {
		if len(msg.Payload) != 1 || msg.Payload[0] != kind {
			continue
		}
		if len(forced) > 0 && forced[len(forced)-1] == int32(msg.From) {
			continue // duplicated force
		}
		forced = append(forced, int32(msg.From))
	}
	f.granted = forced
	if len(forced) == 0 {
		return
	}
	if !f.open {
		*openedFlag = true
	}
	f.connect(forced)
}

// processRepair settles the repair pass on the facility side: REPAIR-JOIN
// clients unilaterally joined this (open) facility and only need load and
// copy accounting; REPAIR-FORCE clients found no open facility alive and
// are connected the same way the cleanup fallback connects them.
func (f *facilityNode) processRepair(inbox []congest.Message) {
	joins := 0
	last := -1
	for _, msg := range inbox {
		if len(msg.Payload) != 1 || msg.Payload[0] != kindRepairJoin || msg.From == last {
			continue
		}
		last = msg.From
		joins++
	}
	if joins > 0 {
		f.load += joins
		if f.cfg.SoftCapacity > 0 {
			if need := fl.CopiesNeeded(f.load, f.cfg.SoftCapacity); need > f.copies {
				f.copies = need
			}
		}
	}
	f.connectForced(inbox, kindRepairForce, &f.openedInRepair)
}

// clientNode is client j's state machine.
type clientNode struct {
	inst *fl.Instance
	idx  int // client index; node id is m+idx
	cfg  Config
	d    Derived

	env       *congest.Env
	assigned  int  // facility index, or fl.Unassigned
	announced bool // DONE broadcast performed
	granted   int  // facility node id granted this iteration, or -1

	// cleanupConnected reports whether the client only connected via the
	// cleanup fallback; repairConnected whether the repair pass had to
	// reassign it (both used by the report).
	cleanupConnected bool
	repairConnected  bool
	// repairForced is set while the client waits for the CONNECT that
	// answers its REPAIR-FORCE.
	repairForced bool
	// done is set when the client completes its final round; a node that
	// never gets there was crashed by a fault schedule and its assignment
	// must not reach the solution.
	done bool

	// sentry is the sender-quarantine layer (see quarantine.go); nil unless
	// the run's fault schedule includes corruption or byzantine nodes.
	sentry *sentry
}

var (
	_ congest.Node        = (*clientNode)(nil)
	_ congest.Recoverable = (*clientNode)(nil)
)

// newClientNodes builds every client state machine in one flat allocation;
// clients carry no per-edge state, so a single contiguous store is the
// whole struct-of-arrays story on this side.
func newClientNodes(inst *fl.Instance, cfg Config, d Derived) []*clientNode {
	store := make([]clientNode, inst.NC())
	out := make([]*clientNode, inst.NC())
	for j := range store {
		store[j] = clientNode{
			inst:     inst,
			idx:      j,
			cfg:      cfg,
			d:        d,
			assigned: fl.Unassigned,
			granted:  -1,
		}
		out[j] = &store[j]
	}
	return out
}

func (c *clientNode) Init(env *congest.Env) { c.env = env }

// Recover resets the client to its post-Init state after an injected
// crash: unassigned, unannounced, holding no grant.
func (c *clientNode) Recover() {
	c.assigned = fl.Unassigned
	c.announced = false
	c.granted = -1
	c.cleanupConnected = false
	c.repairConnected = false
	c.repairForced = false
	c.done = false
	// The sentry survives the restart like the engine's link-layer state:
	// quarantine models the node's network stack, not protocol state.
}

func (c *clientNode) Round(r int, inbox []congest.Message) bool {
	if c.sentry != nil {
		inbox = c.screenClient(r, inbox)
	}
	switch {
	case r == c.d.ProtoRounds:
		// Last chance to absorb a CONNECT from the final iteration, then
		// fall back to the cheapest facility.
		c.processConnect(inbox, false)
		if c.assigned == fl.Unassigned {
			c.sendForce()
		}
		// Between here and the repair decision at P+4 the client only
		// absorbs CONNECTs, and a CONNECT wakes it (see Env.SleepUntil;
		// empty-inbox cleanup rounds are no-ops for an assigned and
		// unassigned client alike).
		c.env.SleepUntil(c.d.ProtoRounds + 4)
		return false
	case r == c.d.ProtoRounds+1:
		c.env.SleepUntil(c.d.ProtoRounds + 4)
		return false // facilities answer FORCE this round
	case r == c.d.ProtoRounds+2:
		c.processConnect(inbox, true)
		c.env.SleepUntil(c.d.ProtoRounds + 4)
		return false // stay for the repair pass
	case r == c.d.ProtoRounds+3:
		return false // facilities broadcast repair beacons this round
	case r == c.d.ProtoRounds+4:
		c.repairRound(inbox)
		// The halt round at P+6 must run; P+5 is the facilities' turn.
		c.env.SleepUntil(c.d.ProtoRounds + 6)
		return false
	case r == c.d.ProtoRounds+5:
		return false // the forced facility answers this round
	case r >= c.d.ProtoRounds+6:
		// Every client halts here, forced or not, so the termination
		// round is schedule-fixed at TotalRounds.
		if c.repairForced {
			c.processConnect(inbox, true)
			if c.assigned != fl.Unassigned {
				c.repairConnected = true
			}
		}
		c.done = true
		return true
	}
	switch r % 4 {
	case 0:
		c.processConnect(inbox, false)
		if c.assigned != fl.Unassigned && !c.announced {
			c.announceDone()
		}
		c.declareClientSleep(r)
	case 2:
		c.pickOffer(inbox)
		c.declareClientSleep(r)
	}
	return false
}

// declareClientSleep covers the client's provable no-op rounds during the
// phase sweep (see congest.Env.SleepUntil). A connected, announced client is
// done until the repair decision at P+4: processConnect and pickOffer both
// early-return once assigned, the cleanup fallback rounds skip assigned
// clients, and any message (a spurious OFFER from a facility that missed our
// DONE, forged traffic) wakes it for a round that changes nothing. An
// unconnected client acts every other round — the round in between belongs
// to the facilities — so it skips just that one. Clients draw no randomness
// anywhere, so the declarations cannot touch an RNG stream.
func (c *clientNode) declareClientSleep(r int) {
	if c.assigned != fl.Unassigned && c.announced {
		c.env.SleepUntil(c.d.ProtoRounds + 4)
		return
	}
	c.env.SleepUntil(r + 2)
}

func (c *clientNode) processConnect(inbox []congest.Message, cleanup bool) {
	for _, msg := range inbox {
		if len(msg.Payload) != 1 || msg.Payload[0] != kindConnect {
			continue
		}
		if c.assigned != fl.Unassigned {
			continue
		}
		if !cleanup && msg.From != c.granted {
			continue // only the facility we granted may connect us
		}
		c.assigned = msg.From // facility node id == facility index
		c.cleanupConnected = cleanup
	}
	if c.sentry != nil && !cleanup && c.granted != -1 && c.assigned == fl.Unassigned {
		// The granted facility never connected us. A lure-offer attack —
		// a byzantine facility winning grants it has no intention of
		// serving — looks exactly like this, but so does an honest facility
		// whose star shrank below its opening budget or whose CONNECT was
		// dropped, so condemnation takes repeated misses.
		c.sentry.suspect(c.granted, 1, grantMissThreshold)
	}
	c.granted = -1
}

// sendForce asks the cheapest facility the client still trusts to open for
// it (the cleanup fallback). Without a sentry that is simply the cheapest
// edge; with one, quarantined facilities are passed over — forcing a
// condemned facility would hand the adversary the client's last resort.
func (c *clientNode) sendForce() {
	if c.sentry == nil {
		if e, ok := c.inst.CheapestEdge(c.idx); ok {
			c.env.Send(e.To, payloadForce)
		}
		return
	}
	for _, e := range c.inst.ClientEdges(c.idx) {
		if !c.sentry.isQuarantined(e.To) { // facility index == node id
			c.env.Send(e.To, payloadForce)
			return
		}
	}
}

func (c *clientNode) announceDone() {
	for _, v := range c.env.Neighbors() {
		if v == c.assigned {
			continue
		}
		c.env.Send(v, payloadDone)
	}
	c.announced = true
}

// pickOffer grants the best OFFER: lowest effectiveness class first (better
// stars win), then — with the FineGrainedTieBreak extension — the lowest
// log2-quantized effectiveness, then highest random priority (symmetry
// breaking), then lowest facility id (determinism).
func (c *clientNode) pickOffer(inbox []congest.Message) {
	if c.assigned != fl.Unassigned {
		return
	}
	best := -1
	bestClass, bestFine := 0, 0
	var bestPrio uint32
	for _, msg := range inbox {
		class, fine, prio, err := decodeOffer(msg.Payload)
		if err != nil {
			continue
		}
		if !c.cfg.FineGrainedTieBreak {
			fine = 0
		}
		better := best == -1 ||
			class < bestClass ||
			(class == bestClass && fine < bestFine) ||
			(class == bestClass && fine == bestFine && prio > bestPrio) ||
			(class == bestClass && fine == bestFine && prio == bestPrio && msg.From < best)
		if better {
			best, bestClass, bestFine, bestPrio = msg.From, class, fine, prio
		}
	}
	if best == -1 {
		return
	}
	c.granted = best
	c.env.Send(best, payloadGrant)
}

// repairRound is the client half of the self-healing pass. The beacons
// broadcast at P+3 are the client's complete view: a facility with no
// beacon is dead, a closed beacon means the facility lost its open state
// (it crashed and recovered). A served client — assigned to a facility
// whose beacon says open — halts immediately. An unserved one (facility
// crashed, or its GRANT/CONNECT was lost on the wire) deterministically
// reconnects to the cheapest open facility in reach with a unilateral
// REPAIR-JOIN; if no open facility is alive it asks the cheapest alive one
// to open with REPAIR-FORCE and stays one more exchange for the CONNECT.
// A client whose every facility is dead is unservable under this fault
// schedule: it halts unassigned and the certifier exempts it.
func (c *clientNode) repairRound(inbox []congest.Message) {
	// Inboxes arrive sorted by sender id, so one pass over the beacons
	// yields the alive and open id lists already ascending; membership
	// below is a binary search. This replaces the two per-call maps the
	// old layout allocated here. Repeated beacons from one sender (wire
	// duplication) fold by comparing against the list tail, preserving the
	// map version's OR semantics for the open bit.
	alive := make([]int32, 0, len(inbox))
	openF := make([]int32, 0, len(inbox))
	for _, msg := range inbox {
		open, ok := decodeBeacon(msg.Payload)
		if !ok {
			continue
		}
		from := int32(msg.From)
		if n := len(alive); n == 0 || alive[n-1] != from {
			alive = append(alive, from)
		}
		if open {
			if n := len(openF); n == 0 || openF[n-1] != from {
				openF = append(openF, from)
			}
		}
	}
	if c.assigned != fl.Unassigned && sortedHas(openF, c.assigned) {
		return // served: the assignment survived the faults
	}
	c.assigned = fl.Unassigned
	for _, e := range c.inst.ClientEdges(c.idx) {
		if sortedHas(openF, e.To) { // facility index == facility node id
			c.assigned = e.To
			c.repairConnected = true
			c.env.Send(e.To, payloadRepairJoin)
			return
		}
	}
	for _, e := range c.inst.ClientEdges(c.idx) {
		if sortedHas(alive, e.To) {
			c.repairForced = true
			c.env.Send(e.To, payloadRepairForce)
			return
		}
	}
	// Every facility in reach is dead: the client is unservable under
	// this fault schedule; it halts unassigned and the certifier
	// exempts it.
}

// sortedHas reports membership of id in an ascending id list.
func sortedHas(ids []int32, id int) bool {
	_, ok := slices.BinarySearch(ids, int32(id))
	return ok
}
