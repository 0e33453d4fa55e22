package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"linkclust/internal/core"
)

// sweepKernelThreads is the thread sweep of the acceptance comparison.
var sweepKernelThreads = []int{1, 2, 4, 8}

// sweepKernelThread is one worker-count measurement of a row.
type sweepKernelThread struct {
	Workers int     `json:"workers"`
	Ns      int64   `json:"ns"`
	Speedup float64 `json:"speedup"` // serial / this
}

// sweepKernelResult is one α row of the sweep-kernel microbenchmark.
type sweepKernelResult struct {
	Alpha         float64 `json:"alpha"`
	Vertices      int     `json:"vertices"`
	Edges         int     `json:"edges"`
	Pairs         int     `json:"pairs"`          // K1
	IncidentPairs int64   `json:"incident_pairs"` // K2
	Merges        int     `json:"merges"`

	SerialNs  int64               `json:"serial_ns"`
	Threads   []sweepKernelThread `json:"threads"`
	SpeedupT8 float64             `json:"speedup_t8"`

	// Engine is what ClusterOptions.Engine "auto" resolves to at T=8
	// (core.ResolveSweepEngine: the windowed engine at every worker count);
	// AutoNs/AutoSpeedup are its T=8 measurement.
	Engine      string  `json:"engine"`
	AutoNs      int64   `json:"auto_ns"`
	AutoSpeedup float64 `json:"auto_speedup"`
}

// sweepKernelReport is the BENCH_sweep.json document.
type sweepKernelReport struct {
	Schema    string              `json:"schema"`
	Name      string              `json:"name"`
	CreatedAt time.Time           `json:"created_at"`
	Meta      map[string]string   `json:"meta"`
	Results   []sweepKernelResult `json:"results"`
}

// SweepKernel benchmarks the merge phase of Algorithm 2 head-to-head per
// fraction α: the serial sweep against the parallel fine-grained engine at
// T ∈ {1, 2, 4, 8} workers, on the same pre-sorted pair list. The comparison
// is self-validating — every parallel run's merge stream is checked bitwise
// against the serial stream before its time is accepted, so a reported
// speedup can never come from divergent output. With cfg.BenchJSON set, the
// comparison is additionally written as a linkclust/bench/v1 JSON document.
func SweepKernel(w io.Writer, cfg Config) error {
	wls, err := BuildWorkloads(cfg)
	if err != nil {
		return err
	}
	cols := []string{"alpha", "K2", "merges", "serial"}
	for _, th := range sweepKernelThreads {
		cols = append(cols, fmt.Sprintf("T=%d", th))
	}
	cols = append(cols, "speedup(T=8)", "auto(T=8)")
	t := &Table{
		Title:   "sweepkernel: fine-grained sweep, serial vs parallel reservation engine",
		Columns: cols,
		Notes: []string{
			"every parallel merge stream verified bitwise against serial before timing is accepted",
			fmt.Sprintf("this machine exposes %d CPU core(s); parallel columns measure kernel cost, not scaling", runtime.NumCPU()),
			"serial is the reference loop (core.Sweep); T=1 is the windowed engine the one-worker default path runs",
			"auto(T=8) reports the engine -engine auto selects at T=8 and its speedup vs serial",
		},
	}
	report := &sweepKernelReport{
		Schema:    BenchSchemaV1,
		Name:      "sweep-kernel",
		CreatedAt: time.Now().UTC(),
		Meta: map[string]string{
			"threads": fmt.Sprintf("%v", sweepKernelThreads),
			"repeats": fmt.Sprintf("%d", cfg.Repeats),
			"cpus":    fmt.Sprintf("%d", runtime.NumCPU()),
		},
	}
	for _, wl := range wls {
		g := wl.Graph
		end := cfg.Obs.Phase(fmt.Sprintf("sweepkernel-alpha-%g", wl.Alpha))
		pl := core.Similarity(g)
		pl.Sort() // both sweeps sort in place; hoist the shared cost out of the timings
		var serial *core.Result
		serialNs := timeIt(cfg.Repeats, func() {
			r, err2 := core.Sweep(g, pl)
			if err2 != nil {
				err = err2
				return
			}
			serial = r
		})
		if err != nil {
			end()
			return fmt.Errorf("bench: serial sweep at alpha %v: %w", wl.Alpha, err)
		}
		res := sweepKernelResult{
			Alpha:         wl.Alpha,
			Vertices:      g.NumVertices(),
			Edges:         g.NumEdges(),
			Pairs:         len(pl.Pairs),
			IncidentPairs: pl.NumIncidentPairs(),
			Merges:        len(serial.Merges),
			SerialNs:      serialNs.Nanoseconds(),
		}
		row := []any{wl.Alpha, res.IncidentPairs, res.Merges, formatSeconds(serialNs)}
		for _, th := range sweepKernelThreads {
			var par *core.Result
			parNs := timeIt(cfg.Repeats, func() {
				r, err2 := core.SweepParallel(g, pl, th)
				if err2 != nil {
					err = err2
					return
				}
				par = r
			})
			if err != nil {
				end()
				return fmt.Errorf("bench: parallel sweep at alpha %v T=%d: %w", wl.Alpha, th, err)
			}
			if err := sameMergeStream(serial, par); err != nil {
				end()
				return fmt.Errorf("bench: alpha %v T=%d: %w", wl.Alpha, th, err)
			}
			tr := sweepKernelThread{Workers: th, Ns: parNs.Nanoseconds()}
			if parNs > 0 {
				tr.Speedup = float64(serialNs) / float64(parNs)
			}
			if th == 8 {
				res.SpeedupT8 = tr.Speedup
				res.AutoNs = parNs.Nanoseconds()
			}
			res.Threads = append(res.Threads, tr)
			row = append(row, formatSeconds(parNs))
		}
		end()
		res.Engine, _, _ = core.ResolveSweepEngine(core.SweepEngineAuto, 8)
		if res.AutoNs > 0 {
			res.AutoSpeedup = float64(serialNs) / float64(res.AutoNs)
		}
		report.Results = append(report.Results, res)
		row = append(row, formatFloat(res.SpeedupT8)+"x",
			fmt.Sprintf("%s %sx", res.Engine, formatFloat(res.AutoSpeedup)))
		t.AddRow(row...)
	}
	t.Fprint(w)
	if cfg.BenchJSON != "" {
		if err := writeBenchJSON(cfg.BenchJSON, report); err != nil {
			return fmt.Errorf("bench: writing %s: %w", cfg.BenchJSON, err)
		}
		fmt.Fprintf(w, "bench report written to %s\n", cfg.BenchJSON)
	}
	return nil
}

// sameMergeStream verifies that two sweep results carry bitwise-identical
// merge streams and final summaries.
func sameMergeStream(serial, par *core.Result) error {
	if len(par.Merges) != len(serial.Merges) {
		return fmt.Errorf("merge stream diverged: %d merges vs serial's %d", len(par.Merges), len(serial.Merges))
	}
	for i := range serial.Merges {
		if par.Merges[i] != serial.Merges[i] {
			return fmt.Errorf("merge stream diverged at %d: %+v vs serial's %+v", i, par.Merges[i], serial.Merges[i])
		}
	}
	if par.NumClusters() != serial.NumClusters() || par.PairsProcessed != serial.PairsProcessed {
		return fmt.Errorf("summary diverged: %d clusters / %d ops vs serial's %d / %d",
			par.NumClusters(), par.PairsProcessed, serial.NumClusters(), serial.PairsProcessed)
	}
	return nil
}
