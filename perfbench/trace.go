package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one solve share
// Solve (setup spans use -1); Parent is the enclosing span's ID, or -1.
type span struct {
	Solve  int                `json:"solve"`
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced solves pass nil and pay one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// at converts a wall time to nanoseconds since the run started.
func (t *tracer) at(x time.Time) int64 { return x.Sub(t.t0).Nanoseconds() }

// newID reserves the ID of a span recorded later, so children can name
// their parent before it ends.
func (t *tracer) newID() int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores a span under an ID from newID.
func (t *tracer) record(solve, id, parent int, name string, start, end time.Time, attrs map[string]float64) {
	if t == nil {
		return
	}
	sp := span{Solve: solve, ID: id, Parent: parent, Name: name, Start: t.at(start), End: t.at(end), Attrs: attrs}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// add records a span that no other span names as its parent.
func (t *tracer) add(solve, parent int, name string, start, end time.Time, attrs map[string]float64) {
	t.record(solve, t.newID(), parent, name, start, end, attrs)
}

// roundSpans splits a solve [t0, t1] at its round ends: core.prelude up to
// the end of the first round, one congest.round per later round, and
// core.epilogue from the last round end to the return.
func (t *tracer) roundSpans(solve, parent int, t0, t1 time.Time, ends []time.Time) {
	if t == nil || len(ends) == 0 {
		return
	}
	t.add(solve, parent, "core.prelude", t0, ends[0], nil)
	for i := 1; i < len(ends); i++ {
		t.add(solve, parent, "congest.round", ends[i-1], ends[i], nil)
	}
	t.add(solve, parent, "core.epilogue", ends[len(ends)-1], t1, nil)
}

// write stores the spans as JSON lines after a header line naming the run.
func (t *tracer) write(path string, o options, w workload) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	header := map[string]any{
		"workload": w.name, "seed": o.seed, "seconds": o.seconds,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(), "go": runtime.Version(),
	}
	if err := enc.Encode(header); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, sp := range t.spans {
		if err := enc.Encode(sp); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// layer is one per-layer metric. Counts come from the attributes of a
// solve's root span; times are sums of span durations.
type layer struct {
	name, unit string
	// fleetOnly metrics are printed for the fleet workload but left out
	// of the result line (see row.textOnly).
	fleetOnly bool
	note      string
}

var layers = []layer{
	{name: "gen.instance_mib", unit: "MiB", note: "live-heap growth from one Generate"},
	{name: "core.prelude_s", unit: "s", note: "solve start to end of round 1"},
	{name: "core.epilogue_s", unit: "s", note: "end of last round to return"},
	{name: "core.certify_s", unit: "s", note: "core.Certify alone"},
	{name: "core.rounds", unit: "count"},
	{name: "core.open_facilities", unit: "count"},
	{name: "core.repaired_clients", unit: "count"},
	{name: "core.exempt_clients", unit: "count", note: "must be 0"},
	{name: "congest.graph_build_s", unit: "s", note: "congest.Bipartite + Finalize alone"},
	{name: "congest.rounds_s", unit: "s", note: "end of round 1 to end of last round"},
	{name: "congest.round_ms.p50", unit: "ms"},
	{name: "congest.round_ms.max", unit: "ms"},
	{name: "congest.ns_per_msg", unit: "ns", note: "rounds_s / messages"},
	{name: "congest.messages", unit: "count"},
	{name: "congest.bits", unit: "count"},
	{name: "congest.live_node_rounds", unit: "count"},
	{name: "congest.senders", unit: "count"},
	{name: "congest.active_frac", unit: "ratio", note: "senders / live_node_rounds"},
	{name: "congest.dropped", unit: "count"},
	{name: "congest.retransmits", unit: "count"},
	{name: "congest.acks", unit: "count"},
	{name: "congest.link_overhead", unit: "ratio", note: "(retransmits + acks) / messages"},
	{name: "udp.dial_s", unit: "s", fleetOnly: true, note: "mean over shards"},
	{name: "core.shard_setup_s", unit: "s", fleetOnly: true, note: "SolveShard entry to first Begin, mean over shards"},
	{name: "udp.begin_wait_s", unit: "s", fleetOnly: true, note: "sum over rounds, mean over shards"},
	{name: "udp.send_s", unit: "s", fleetOnly: true, note: "sum over rounds, mean over shards"},
	{name: "udp.gather_wait_s", unit: "s", fleetOnly: true, note: "sum over rounds, mean over shards"},
	{name: "udp.shard_compute_s", unit: "s", fleetOnly: true, note: "SolveShard minus setup, begin, send and gather; mean over shards"},
	{name: "core.fragment_codec_s", unit: "s", fleetOnly: true, note: "encode + decode, summed over shards"},
	{name: "core.assemble_s", unit: "s", fleetOnly: true},
	{name: "udp.fenced", unit: "count", note: "must be 0"},
	{name: "udp.rejected", unit: "count", note: "must be 0"},
	{name: "go.alloc_mib", unit: "MiB"},
	{name: "go.gc_cycles", unit: "count"},
	{name: "go.gc_cpu_s", unit: "s"},
}

// layerMetrics derives every per-layer metric from the spans: one value
// per traced solve, reported as the median over them.
func (t *tracer) layerMetrics(fleet bool) []row {
	t.mu.Lock()
	bySolve := map[int][]span{}
	for _, sp := range t.spans {
		bySolve[sp.Solve] = append(bySolve[sp.Solve], sp)
	}
	t.mu.Unlock()

	values := map[string][]float64{}
	for solve, spans := range bySolve {
		if solve < 0 {
			for _, sp := range spans {
				if sp.Name == "gen.generate" {
					values["gen.instance_mib"] = append(values["gen.instance_mib"], sp.Attrs["instance_mib"])
				}
			}
			continue
		}
		for name, v := range solveLayers(spans) {
			values[name] = append(values[name], v)
		}
	}
	var rows []row
	for _, l := range layers {
		if l.fleetOnly && !fleet {
			continue
		}
		vs := values[l.name]
		rows = append(rows, row{name: l.name, value: median(vs), unit: l.unit, n: len(vs), note: l.note, textOnly: l.fleetOnly})
	}
	return rows
}

// solveLayers computes the per-layer values of one traced solve.
func solveLayers(spans []span) map[string]float64 {
	secs := func(sp span) float64 { return float64(sp.End-sp.Start) / 1e9 }
	total := map[string]float64{}
	var roundMS []float64
	byID := map[int]span{}
	var attrs map[string]float64
	for _, sp := range spans {
		total[sp.Name] += secs(sp)
		byID[sp.ID] = sp
		switch sp.Name {
		case "congest.round":
			roundMS = append(roundMS, secs(sp)*1e3)
		case "solve":
			attrs = sp.Attrs
		}
	}
	out := map[string]float64{
		"core.prelude_s":        total["core.prelude"],
		"core.epilogue_s":       total["core.epilogue"],
		"core.certify_s":        total["core.certify"],
		"congest.graph_build_s": total["congest.graph_build"],
		"congest.rounds_s":      total["congest.round"],
		"congest.round_ms.p50":  median(roundMS),
	}
	if len(roundMS) > 0 {
		out["congest.round_ms.max"] = slices.Max(roundMS)
	}
	for k, v := range attrs {
		out[k] = v
	}
	out["congest.ns_per_msg"] = ratio(total["congest.round"]*1e9, attrs["congest.messages"])
	out["congest.active_frac"] = ratio(attrs["congest.senders"], attrs["congest.live_node_rounds"])
	out["congest.link_overhead"] = ratio(attrs["congest.retransmits"]+attrs["congest.acks"], attrs["congest.messages"])

	// Fleet shards: group each span under the udp.shard span above it.
	perShard := map[int]map[string]float64{}
	for _, sp := range spans {
		for up, ok := byID[sp.Parent]; ok; up, ok = byID[up.Parent] {
			if up.Name == "udp.shard" {
				if perShard[up.ID] == nil {
					perShard[up.ID] = map[string]float64{}
				}
				perShard[up.ID][sp.Name] += secs(sp)
				break
			}
		}
	}
	if len(perShard) > 0 {
		n := float64(len(perShard))
		for _, sh := range perShard {
			out["udp.dial_s"] += sh["udp.dial"] / n
			out["core.shard_setup_s"] += sh["core.shard_setup"] / n
			out["udp.begin_wait_s"] += sh["udp.begin"] / n
			out["udp.send_s"] += sh["udp.send"] / n
			out["udp.gather_wait_s"] += sh["udp.gather"] / n
			out["udp.shard_compute_s"] += (sh["core.solve_shard"] - sh["core.shard_setup"] - sh["udp.begin"] - sh["udp.send"] - sh["udp.gather"]) / n
		}
		out["core.fragment_codec_s"] = total["core.fragment_encode"] + total["core.fragment_decode"]
		out["core.assemble_s"] = total["core.assemble"]
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
