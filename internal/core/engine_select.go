package core

import "linkclust/internal/par"

// Sweep engine identifiers, as accepted by the facade's
// ClusterOptions.Engine, the linkclust -engine flag, and the daemon's
// options payload. Every engine produces a bitwise-identical merge stream —
// the choice trades scheduling overhead against parallel speedup only.
const (
	// SweepEngineAuto selects by worker count and pipeline preference; see
	// ChooseSweepEngine.
	SweepEngineAuto = "auto"
	// SweepEngineSerial is the windowed engine at one worker. The name stays
	// accepted because journals, CLI flags and option payloads carry it;
	// the paper's serial loop itself (Sweep) runs on no production path.
	SweepEngineSerial = "serial"
	// SweepEngineParallel is the windowed reservation engine
	// (SweepParallel).
	SweepEngineParallel = "parallel"
	// SweepEnginePipelined overlaps pair-list sorting with merging
	// (SweepPipelined).
	SweepEnginePipelined = "pipelined"
	// SweepEngineSpill is the out-of-core sweep (SweepSpilled): similarity
	// buckets spill to disk and stream back through the pipelined engine's
	// frontier, so the pair list never has to be memory-resident. Never
	// chosen by auto selection — the facade reaches it through the explicit
	// engine option or the memory-budget admission path.
	SweepEngineSpill = "spill"
)

// ChooseSweepEngine resolves the auto engine policy: the pipelined engine
// when pipeline is requested and workers normalize to two or more (its
// producer needs a second worker to sort while the engine merges), the
// windowed engine otherwise — at one worker included, where it beats the
// paper's serial loop on every measured workload graph (DESIGN.md, "Adaptive
// engine selection"). The decision depends only on (normalized workers,
// pipeline), never on timing, and because every engine is bitwise
// identical, even a different choice could not change the output, only the
// speed.
func ChooseSweepEngine(workers int, pipeline bool) string {
	if pipeline && par.Normalize(workers) >= 2 {
		return SweepEnginePipelined
	}
	return SweepEngineParallel
}

// ResolveSweepEngine maps a requested engine name and worker count to the
// engine that runs and the worker count it runs at: empty and auto resolve
// through ChooseSweepEngine, serial is the windowed engine at one worker,
// and every other name runs as given. Callers validate the name first.
func ResolveSweepEngine(name string, workers int, pipeline bool) (string, int) {
	switch name {
	case "", SweepEngineAuto:
		return ChooseSweepEngine(workers, pipeline), workers
	case SweepEngineSerial:
		return SweepEngineParallel, 1
	}
	return name, workers
}
