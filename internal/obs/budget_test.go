package obs

import (
	"testing"
	"time"
)

func TestMemBudgetNilNeverExceeded(t *testing.T) {
	var b *MemBudget
	if b.Exceeded() {
		t.Fatal("nil budget exceeded")
	}
	if b.Used() != 0 || b.Limit() != 0 {
		t.Fatalf("nil budget Used=%d Limit=%d, want 0, 0", b.Used(), b.Limit())
	}
	if NewMemBudget(0) != nil || NewMemBudget(-1) != nil {
		t.Fatal("non-positive limit did not return the nil budget")
	}
}

func TestMemBudgetObservesGrowth(t *testing.T) {
	b := NewMemBudget(1 << 20) // 1 MiB of headroom
	if b.Exceeded() {
		t.Fatalf("fresh budget exceeded (delta %d)", b.Used())
	}
	// Retain well past the limit; the runtime/metrics live-heap view must
	// see the growth.
	ballast := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		ballast = append(ballast, make([]byte, 1<<20))
	}
	if !b.Exceeded() {
		t.Fatalf("64 MiB retained but budget not exceeded (delta %d)", b.Used())
	}
	if b.Used() <= b.Limit() {
		t.Fatalf("Used() = %d, want > limit %d", b.Used(), b.Limit())
	}
	_ = ballast
}

// TestMemBudgetCheckIsCheap guards the admission-path contract: one
// Exceeded call must stay far from the old ReadMemStats cost, whose
// stop-the-world made every check pause all running jobs. The
// runtime/metrics read is lock-light and costs well under a microsecond;
// the assertion uses a 20µs ceiling per call (averaged over a batch) so
// race-instrumented and heavily loaded CI runners don't flake, while still
// catching any reintroduction of a stop-the-world read (tens to hundreds
// of µs on a busy heap).
func TestMemBudgetCheckIsCheap(t *testing.T) {
	b := NewMemBudget(1 << 40)
	const n = 4096
	start := time.Now()
	for i := 0; i < n; i++ {
		b.Exceeded()
	}
	per := time.Since(start) / n
	t.Logf("MemBudget.Exceeded: %v per call", per)
	if per > 20*time.Microsecond {
		t.Fatalf("MemBudget.Exceeded costs %v per call, want well under 20µs — did a stop-the-world read come back?", per)
	}
}

// BenchmarkMemBudgetExceeded measures one admission check. The daemon calls
// this per job submission; the target is <1µs per op.
func BenchmarkMemBudgetExceeded(b *testing.B) {
	budget := NewMemBudget(1 << 40)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		budget.Exceeded()
	}
}

// BenchmarkLiveHeapBytes measures the absolute-heap read used by service
// admission control.
func BenchmarkLiveHeapBytes(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		LiveHeapBytes()
	}
}

// TestMemBudgetReserveFloor pins the reservation floor: bytes charged
// through Reserve count as growth even when the live-heap sample reads
// less, as it does after a GC sweeps garbage older than the budget.
func TestMemBudgetReserveFloor(t *testing.T) {
	b := NewMemBudget(1 << 30)
	b.Reserve(1 << 20)
	if b.Exceeded() {
		t.Fatalf("1 MiB reserved under a 1 GiB budget reported a breach (delta %d)", b.Used())
	}
	if b.Used() < 1<<20 {
		t.Fatalf("Used() = %d, want at least the 1 MiB reserved", b.Used())
	}
	b.Reserve(1 << 30)
	if !b.Exceeded() {
		t.Fatalf("reservations past the limit did not breach (delta %d)", b.Used())
	}
	var nilBudget *MemBudget
	nilBudget.Reserve(1 << 40)
	if nilBudget.Exceeded() {
		t.Fatal("nil budget exceeded after Reserve")
	}
}
