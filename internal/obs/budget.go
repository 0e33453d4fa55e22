package obs

import (
	"runtime/metrics"

	"linkclust/internal/fault"
)

// liveHeapMetric is the runtime/metrics key the budget machinery samples:
// bytes occupied by live heap objects (plus dead objects not yet swept) —
// the runtime/metrics counterpart of MemStats.HeapAlloc. Unlike
// runtime.ReadMemStats, reading it does not stop the world: metrics.Read
// takes a snapshot of runtime-maintained counters, costing well under a
// microsecond (see BenchmarkMemBudgetExceeded), so it is safe on paths hot
// enough to run per job admission, not just at phase boundaries.
const liveHeapMetric = "/memory/classes/heap/objects:bytes"

// LiveHeapBytes returns the current live-heap size without stopping the
// world. It is safe to call concurrently from any goroutine; services use
// it for admission checks against an absolute heap ceiling (MemBudget
// measures *growth* relative to its construction instead).
func LiveHeapBytes() uint64 {
	s := [1]metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s[:])
	return s[0].Value.Uint64()
}

// MemBudget is a soft memory budget checked at phase boundaries: it captures
// a live-heap baseline at construction and compares the live-heap growth
// against the limit on each Exceeded call. "Soft" means nothing is enforced
// between checks — a phase may overshoot and the overshoot is only observed
// at its boundary — which is the usable contract for this pipeline:
// allocation happens in a few large, phase-aligned steps (pair list, CSR
// arenas, chain snapshots), so the boundary after the initialization phase
// is exactly where degrading to the coarse algorithm still saves the
// sweep-phase allocations.
//
// The heap is sampled through runtime/metrics, not runtime.ReadMemStats:
// ReadMemStats stops the world, which made every budget check a global
// pause of every running job — unacceptable once a daemon calls Exceeded
// at each admission. The runtime/metrics value may lag allocations by a
// per-P cache flush, a tolerance the soft contract already absorbs.
//
// A nil *MemBudget is valid and never exceeded, mirroring the package's nil
// *Recorder convention. A MemBudget is owned by one run: Exceeded and Used
// are not safe for concurrent use (construct one budget per run or per
// admission instead — construction is as cheap as a check).
type MemBudget struct {
	limit     int64
	baseHeap  uint64
	reserved  int64
	lastDelta int64
	sample    [1]metrics.Sample
}

// NewMemBudget returns a budget of limitBytes of live-heap growth measured
// from now. limitBytes <= 0 returns nil — no budget, never exceeded.
func NewMemBudget(limitBytes int64) *MemBudget {
	if limitBytes <= 0 {
		return nil
	}
	b := &MemBudget{limit: limitBytes}
	b.sample[0].Name = liveHeapMetric
	metrics.Read(b.sample[:])
	b.baseHeap = b.sample[0].Value.Uint64()
	return b
}

// Reserve charges bytes the run is known to hold live, such as the pair list
// it just built, as a floor under the measured growth. The live-heap sample
// alone can read low: it still counts garbage that predates the budget, and
// a GC that sweeps that garbage between construction and the check offsets
// the run's own allocations. A nil budget ignores the call.
func (b *MemBudget) Reserve(bytes int64) {
	if b != nil {
		b.reserved += bytes
	}
}

// Exceeded reports whether the live heap has grown past the budget since
// construction — or the bytes charged through Reserve have, whichever is
// larger — recording the charged delta for Used. The read is a
// stop-the-world-free runtime/metrics sample costing well under a
// microsecond, cheap enough for per-job admission checks. The
// fault.MemBreach injection point is checked first: a firing hit reports a
// breach without the heap actually having grown, which is how the
// degradation path is tested deterministically.
func (b *MemBudget) Exceeded() bool {
	if b == nil {
		return false
	}
	if fault.Hit(fault.MemBreach) {
		b.lastDelta = b.limit + 1
		return true
	}
	metrics.Read(b.sample[:])
	b.lastDelta = max(int64(b.sample[0].Value.Uint64())-int64(b.baseHeap), b.reserved)
	return b.lastDelta > b.limit
}

// Used returns the delta charged by the last Exceeded call (0 before the
// first call, or on a nil budget). Negative values mean a GC freed more than
// the run retained and nothing was reserved.
func (b *MemBudget) Used() int64 {
	if b == nil {
		return 0
	}
	return b.lastDelta
}

// Limit returns the budget in bytes (0 on a nil budget).
func (b *MemBudget) Limit() int64 {
	if b == nil {
		return 0
	}
	return b.limit
}
