package core

import "fmt"

// Sweep engine identifiers, as accepted by the facade's
// ClusterOptions.Engine, the linkclust -engine flag, and the daemon's
// options payload. There are two engines — the windowed engine and the
// out-of-core spill — and every accepted name produces a bitwise-identical
// merge stream; the choice trades memory and scheduling overhead only.
const (
	// SweepEngineAuto is the default: the windowed engine at the requested
	// worker count.
	SweepEngineAuto = "auto"
	// SweepEngineSerial is the windowed engine at one worker. The name stays
	// accepted because journals, CLI flags and option payloads carry it;
	// the paper's serial loop itself (Sweep) runs on no production path.
	SweepEngineSerial = "serial"
	// SweepEngineParallel is the windowed reservation engine
	// (SweepParallel).
	SweepEngineParallel = "parallel"
	// SweepEnginePipelined is a legacy name for the windowed engine. It once
	// selected a sort-overlapped variant whose output was identical, and it
	// stays accepted so journals, flags and payloads that carry it still
	// replay.
	SweepEnginePipelined = "pipelined"
	// SweepEngineSpill is the out-of-core sweep (SweepSpilled): similarity
	// buckets spill to disk and stream back through the windowed engine, so
	// the pair list never has to be memory-resident. Never chosen by auto —
	// the facade reaches it through the explicit engine option or the
	// memory-budget admission path.
	SweepEngineSpill = "spill"
)

// ResolveSweepEngine maps a requested engine name and worker count to the
// engine that runs and the worker count it runs at: spill runs as given,
// serial is the windowed engine at one worker, and every other accepted name
// — empty, auto, parallel and the legacy pipelined — is the windowed engine
// at the requested worker count. An unknown name is an error. The mapping
// depends only on its arguments, never on timing, and because both engines
// are bitwise identical it can change only the speed, not the output.
func ResolveSweepEngine(name string, workers int) (string, int, error) {
	switch name {
	case "", SweepEngineAuto, SweepEngineParallel, SweepEnginePipelined:
		return SweepEngineParallel, workers, nil
	case SweepEngineSerial:
		return SweepEngineParallel, 1, nil
	case SweepEngineSpill:
		return SweepEngineSpill, workers, nil
	}
	return "", 0, fmt.Errorf("unknown sweep engine %q (want %q, %q, %q, %q or %q)", name,
		SweepEngineAuto, SweepEngineSerial, SweepEngineParallel, SweepEnginePipelined, SweepEngineSpill)
}
