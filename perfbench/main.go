// Command perfbench is linkclust's end-to-end, layer-by-layer benchmark. It
// runs one workload — one user path through the system — for a fixed time,
// checks every output bitwise against a serial reference, and prints one
// JSON result line:
//
//	perfbench -workload cluster-wordassoc -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the result holds the end-to-end metrics; with -trace 1 the
// run wraps each layer call in a span and the result holds the per-layer
// metrics instead. perfbench/run.sh builds this program and the linkclustd
// daemon from source and runs it; see perfbench/README.md.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"
)

// metricDef names a metric and its unit. The lists below are the benchmark's
// contract with BENCHMARK.json, which a test keeps in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, emitted by every workload.
// What "one op" is differs per workload; README.md defines it.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"op_s_p50", "s"},
	{"op_s_tail", "s"},
	{"ops_per_s", "1/s"},
	{"edges_per_s", "edges/s"},
}

// perLayer are the metrics of a traced run. Every traced run emits all of
// them; a layer that is not on a workload's path reads 0 there.
var perLayer = []metricDef{
	{"similarity.s", "s"},
	{"similarity.pairs", "count"},
	{"similarity.incident_pairs", "count"},
	{"sort.s", "s"},
	{"sweep.s", "s"},
	{"sweep.merges_per_op", "ratio"},
	{"sweep.chain_rewrites", "count"},
	{"sweep.windows", "count"},
	{"sweep.rounds", "count"},
	{"sweep.noop_drops", "count"},
	{"encode.s", "s"},
	{"encode.bytes", "bytes"},
	{"dendro.bestcut_s", "s"},
	{"dendro.cuts_scanned", "count"},
	{"dendro.communities_s", "s"},
	{"coarse.s", "s"},
	{"coarse.wasted_ratio", "ratio"},
	{"graph.parse_s", "s"},
	{"graph.canon_s", "s"},
	{"graph.text_bytes", "bytes"},
	{"jobs.submit_s", "s"},
	{"jobs.cached_s_per_mb", "s/MB"},
	{"jobs.queue_wait_s", "s"},
	{"jobs.run_s", "s"},
	{"jobs.polls_per_job", "count"},
	{"jobs.merges_fetch_s", "s"},
	{"jobs.result_hit_ratio", "ratio"},
	{"jobs.pairs_hit_ratio", "ratio"},
	{"jobs.cold_job_s_p50", "s"},
	{"jobs.cached_job_s_p50", "s"},
	{"persist.state_bytes", "bytes"},
	{"stream.ingest_s", "s"},
	{"stream.snapshot_s", "s"},
	{"stream.affected_rows", "count"},
	{"stream.replay_share", "ratio"},
	{"stream.compactions", "count"},
	{"trace.overhead_share", "ratio"},
	{"trace.unaccounted_share", "ratio"},
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	nproc   int
	// daemon is the linkclustd binary (service-mixed only).
	daemon string
	// workDir holds everything a run writes.
	workDir string
	// short selects the small test inputs of each workload.
	short bool
	// corrupt flips one bit of the reference before outputs are checked;
	// tests use it to prove a wrong output fails the run.
	corrupt bool
	// corruptServed flips one bit of the first job's merges document as
	// the client receives it (service-mixed only).
	corruptServed bool
}

// A run sets up at least setupMinRepeats times and until setupMinSeconds
// of set-up have passed, at most setupMaxRepeats times; setup_s is the
// median. Cheap set-ups are repeated more, so their median is as steady as
// an expensive one's.
const (
	setupMinRepeats = 3
	setupMaxRepeats = 15
	setupMinSeconds = 1.0
)

// outcome is a finished run: the op counts and metric values, plus details
// (the per-workload figures README.md quotes) printed on their own line.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	detail            map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: make(map[string]float64), detail: make(map[string]any)}
}

// setOps fills the op-derived end-to-end metrics from per-op wall times, the
// graph edges the ops processed, the measured interval, and the run's
// calibration times (see calibrate.go): timings are scaled to the
// reference machine, and the raw ones go to the details. tailPct is the
// workload's tail percentile, recorded with the number of samples beyond
// it (see README.md for why the library workloads use the 90th).
func (o *outcome) setOps(durs []float64, edges int64, elapsed, tailPct float64, cal []float64) {
	scale := speedScale(cal)
	o.attempted = len(durs)
	o.detail["raw_op_s_p50"] = median(durs)
	o.detail["raw_op_s_tail"] = quantile(durs, tailPct/100)
	o.detail["raw_ops_per_s"] = float64(len(durs)) / elapsed
	o.detail["raw_edges_per_s"] = float64(edges) / elapsed
	o.detail["calibration_s"] = median(cal)
	o.detail["speed_scale"] = scale
	o.metrics["op_s_p50"] = median(durs) * scale
	o.metrics["op_s_tail"] = quantile(durs, tailPct/100) * scale
	o.metrics["ops_per_s"] = float64(len(durs)) / elapsed / scale
	o.metrics["edges_per_s"] = float64(edges) / elapsed / scale
	o.detail["ops"] = len(durs)
	o.detail["tail_percentile"] = tailPct
	o.detail["samples_beyond_tail"] = float64(len(durs)) * (1 - tailPct/100)
	o.detail["measured_s"] = elapsed
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (*outcome, error){
	"cluster-wordassoc": runCluster,
	"communities-t1":    runCommunities,
	"service-mixed":     runService,
	"stream-trickle":    runStream,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload to run: cluster-wordassoc, communities-t1, service-mixed or stream-trickle")
		seed     = fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = fs.Float64("seconds", 10, "how long the run measures")
		trace    = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
		daemon   = fs.String("daemon", "", "linkclustd binary (service-mixed)")
		workDir  = fs.String("workdir", ".bench_build", "directory for everything the run writes")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %v", *seconds)
	}
	rc := runConfig{
		seed: *seed, seconds: *seconds, trace: *trace == 1,
		nproc: runtime.NumCPU(), daemon: *daemon, workDir: *workDir,
	}
	return execute(*workload, rc, stdout)
}

// execute runs one workload and prints its stamp-and-detail line and its
// result line.
func execute(workload string, rc runConfig, stdout io.Writer) error {
	runner, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	out, err := runner(rc)
	if err != nil {
		if errors.Is(err, errMismatch) {
			writeResult(stdout, false, 1, 1, nil)
		}
		return err
	}
	defs := endToEnd
	if rc.trace {
		defs = perLayer
	}
	stamp := map[string]any{
		"workload": workload, "seed": rc.seed, "seconds": rc.seconds, "trace": rc.trace,
		"nproc": rc.nproc, "gomaxprocs": runtime.GOMAXPROCS(0), "cpu_model": cpuModel(),
		"go_version": runtime.Version(), "commit": commit(), "source_sha256": sourceDigest("."),
	}
	line, err := json.Marshal(map[string]any{"stamp": stamp, "detail": out.detail})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return writeResult(stdout, true, out.attempted, out.failed, metricsOf(defs, out.metrics))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func metricsOf(defs []metricDef, vals map[string]float64) map[string]metricValue {
	m := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		m[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return m
}

func writeResult(w io.Writer, correct bool, attempted, failed int, metrics map[string]metricValue) error {
	if metrics == nil {
		metrics = map[string]metricValue{}
	}
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// errMismatch marks a run whose output differed from its reference.
var errMismatch = errors.New("output differs from the serial reference")

func mismatch(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errMismatch, fmt.Sprintf(format, args...))
}

// timeSetup runs setup repeatedly (see setupMinRepeats), each time from a
// collected heap and right after timing the calibration kernel on threads
// threads, and records in o the median of the set-up times scaled by their
// kernel times (see calibrate.go) as setup_s, with the raw median in the
// details. Each call must rebuild the whole state the measured loop starts
// from; the last call's state is the one measured. undo, when not nil, runs
// before every repeat but the first, outside the timer, to release what the
// previous call holds.
func timeSetup(o *outcome, threads int, setup, undo func() error) error {
	var raw, scaled []float64
	for len(raw) < setupMinRepeats || (len(raw) < setupMaxRepeats && sum(raw) < setupMinSeconds) {
		if undo != nil && len(raw) > 0 {
			if err := undo(); err != nil {
				return err
			}
		}
		runtime.GC()
		cal := calibrate(threads)
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return err
		}
		d := time.Since(t0).Seconds()
		raw = append(raw, d)
		scaled = append(scaled, d*speedScale([]float64{cal}))
	}
	o.metrics["setup_s"] = median(scaled)
	o.detail["raw_setup_s"] = median(raw)
	o.detail["setup_repeats"] = len(raw)
	return nil
}

// resetPeakRSS restarts the kernel's peak-RSS counter of this process at
// its current RSS, so the next reading covers only what follows.
func resetPeakRSS() {
	// Best effort: without clear_refs (non-Linux, old kernels) the peak
	// covers the whole process lifetime, which only overstates it.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the peak resident set size of process pid ("self" for
// this one) in MiB.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build saw
// one ("unknown" in a checkout without version control).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under root, so a
// result identifies the code it measured even without a VCS revision.
// Hidden directories (build output, VCS metadata) are skipped.
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	slices.Sort(files)
	h := sha256.New()
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}
