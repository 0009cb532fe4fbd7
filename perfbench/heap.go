package main

import (
	"runtime"
	"runtime/metrics"
	"sync/atomic"
)

// Runtime counters read around every solve. Live heap is what the last GC
// cycle marked reachable; HeapInuse would count garbage too.
var runtimeNames = []string{
	"/gc/heap/live:bytes",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

type runtimeSnap struct {
	live, allocs, cycles uint64
	gcCPU                float64
}

func readRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSnap{
		live:   s[0].Value.Uint64(),
		allocs: s[1].Value.Uint64(),
		cycles: s[2].Value.Uint64(),
		gcCPU:  s[3].Value.Float64(),
	}
}

// heapWatch keeps the largest live heap seen at the end of any GC cycle
// since the last reset. It samples without a polling goroutine: a sentinel
// object with a finalizer becomes garbage in every cycle, and its
// finalizer reads the live heap and re-arms a fresh sentinel.
type heapWatch struct {
	peak atomic.Uint64
}

// gcSentinel carries a pointer and some size so the allocator gives it an
// object of its own; tiny pointer-free objects may never be finalized.
type gcSentinel struct {
	_ *heapWatch
	_ [4]uint64
}

func watchHeap() *heapWatch {
	h := &heapWatch{}
	h.arm()
	return h
}

func (h *heapWatch) arm() {
	runtime.SetFinalizer(&gcSentinel{}, func(*gcSentinel) {
		h.observe(readRuntime().live)
		h.arm()
	})
}

func (h *heapWatch) observe(live uint64) {
	for {
		old := h.peak.Load()
		if live <= old || h.peak.CompareAndSwap(old, live) {
			return
		}
	}
}

// reset starts a new peak from the current live heap.
func (h *heapWatch) reset() { h.peak.Store(readRuntime().live) }
