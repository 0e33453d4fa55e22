package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"linkclust"
	"linkclust/internal/bench"
	"linkclust/internal/jobs"
	"linkclust/internal/rng"
)

// serviceSpec is the input of service-mixed.
type serviceSpec struct {
	size bench.Size
	// alphas is the α grid of the pool: every round submits each of these
	// word graphs once as a cold job, under a fresh edge-id permutation, so
	// every run's cold jobs cover the same mix of sizes and no two pool
	// graphs are the same input.
	alphas []float64
	// rounds bounds the sequence; a run ends early only if it runs out.
	rounds int
	// minJobs is the fewest jobs a run measures. Counts and hit ratios are
	// taken over these, so they depend on the seed alone.
	minJobs int
}

var (
	serviceFull = serviceSpec{bench.SizeSmall,
		[]float64{0.0002, 0.00026, 0.00035, 0.00046, 0.0006, 0.0008, 0.00105, 0.0014},
		64, 56}
	serviceShort = serviceSpec{bench.SizeSmall, []float64{0.0002, 0.0003}, 3, 8}
)

// The measured interval is split into serviceSegments equal segments. The
// clients pause between segments, finishing the jobs they hold, while the
// calibration kernel runs serviceCalibrations times; it also runs before
// the first segment and after the last. The daemon does the work, so the
// kernel cannot run next to each job as in the library workloads; this
// way its samples still spread over the whole interval.
const (
	serviceSegments     = 5
	serviceCalibrations = 2
)

const (
	kindCold      = "cold"
	kindPairsHit  = "pairs-hit"
	kindResultHit = "result-hit"
)

// jobSpec is one job of the sequence.
type jobSpec struct {
	Graph int            // pool index
	Algo  jobs.Algorithm // sweep or coarse
	Kind  string         // cold, pairs-hit or result-hit
	// After is the job whose completion this one waits for (-1: none): the
	// sweep whose pair list a coarse job reuses, or the job whose result a
	// resubmit repeats. Waiting makes every job's cache outcome a function
	// of the seed.
	After int
}

// jobSequence draws the job sequence in rounds. Pool graph r·G+i (G =
// len(alphas)) is grid graph i under an edge-id permutation of its own.
// Round r submits, for each grid index i, three jobs: a cold sweep of pool
// graph r·G+i; from round 1 on, a coarse job on graph (r-1)·G+i, swept in
// round r-1 (its pair list is cached); and an exact resubmit of one of
// round r-1's two computed jobs at grid index i, the seed choosing which
// (its result is cached). The seed shuffles each round. So every round
// after the first has the same mix of kinds and sizes, and a resubmit's
// target is from the previous round: fewer than 4·G results (32 on the
// full grid) enter the daemon's 64-entry memory result cache between a
// result and its resubmit, and every hit is a memory hit, however many
// rounds a run reaches.
func jobSequence(seed uint64, spec serviceSpec) []jobSpec {
	r := rng.New(subSeed(seed, 3))
	g := len(spec.alphas)
	var (
		seq []jobSpec
		// computed[i] holds the previous round's cold and coarse jobs at
		// grid index i.
		computed = make([][]int, g)
		sweptBy  = map[int]int{} // pool graph → its cold sweep job
	)
	for round := range spec.rounds {
		var items []jobSpec
		for i := range g {
			items = append(items, jobSpec{Graph: round*g + i, Algo: jobs.AlgoSweep, Kind: kindCold})
			if round > 0 {
				items = append(items,
					jobSpec{Graph: (round-1)*g + i, Algo: jobs.AlgoCoarse, Kind: kindPairsHit},
					jobSpec{Kind: kindResultHit, After: computed[i][r.Intn(len(computed[i]))]})
			}
		}
		r.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
		next := make([][]int, g)
		for _, js := range items {
			k := len(seq)
			switch js.Kind {
			case kindCold:
				js.After = -1
				sweptBy[js.Graph] = k
			case kindPairsHit:
				js.After = sweptBy[js.Graph]
			default:
				js.Graph, js.Algo = seq[js.After].Graph, seq[js.After].Algo
			}
			if js.Kind != kindResultHit {
				next[js.Graph%g] = append(next[js.Graph%g], k)
			}
			seq = append(seq, js)
		}
		computed = next
	}
	return seq
}

// wordGraphLines is a word graph's text split for re-permuting: the header
// and label lines, and one line per edge in edge-id order.
type wordGraphLines struct {
	header []byte
	edges  [][]byte
}

// serviceInputs is everything service-mixed submits. Pool graph i is the
// grid graph alphas[i mod G] with its edge lines in an order drawn from the
// seed; its text is built when a job needs it.
type serviceInputs struct {
	seed uint64
	grid []wordGraphLines
	jobs []jobSpec
}

// serviceGen builds service-mixed's inputs from the run seed.
func serviceGen(seed uint64, spec serviceSpec) (*serviceInputs, error) {
	base, err := wordGraphs(seed, spec.size, spec.alphas)
	if err != nil {
		return nil, err
	}
	in := &serviceInputs{seed: seed, jobs: jobSequence(seed, spec)}
	for _, g := range base {
		text, err := graphText(g)
		if err != nil {
			return nil, err
		}
		var l wordGraphLines
		for _, line := range bytes.SplitAfter(text, []byte("\n")) {
			if bytes.HasPrefix(line, []byte("edge ")) {
				l.edges = append(l.edges, line)
			} else {
				l.header = append(l.header, line...)
			}
		}
		in.grid = append(in.grid, l)
	}
	return in, nil
}

// text is pool graph i in the library's text format: its grid graph with
// the edge lines permuted, so the edge ids — and the content key — are
// new.
func (in *serviceInputs) text(i int) []byte {
	l := in.grid[in.gridIndex(i)]
	out := slices.Clone(l.header)
	for _, j := range rng.New(subSeed(in.seed, 1000+uint64(i))).Perm(len(l.edges)) {
		out = append(out, l.edges[j]...)
	}
	return out
}

// gridIndex is the index in the α grid of pool graph i.
func (in *serviceInputs) gridIndex(i int) int { return i % len(in.grid) }

// numEdges is pool graph i's edge count.
func (in *serviceInputs) numEdges(i int) int { return len(in.grid[in.gridIndex(i)].edges) }

// daemon is a running linkclustd.
type daemon struct {
	cmd  *exec.Cmd
	base string
	out  *syncBuffer
}

// syncBuffer collects the daemon's output; the exec package writes it from
// its own goroutine.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startDaemon starts bin with -concurrency workers and a fresh state
// directory under dir, and returns once it reports ready.
func startDaemon(bin, dir string, workers int) (*daemon, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &daemon{out: &syncBuffer{}}
	d.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-concurrency", strconv.Itoa(workers),
		"-state-dir", filepath.Join(dir, "state"))
	d.cmd.Env = append(os.Environ(), "TMPDIR="+dir)
	d.cmd.Stdout, d.cmd.Stderr = d.out, d.out
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting linkclustd: %w", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if m := listenRE.FindStringSubmatch(d.out.String()); m != nil && d.base == "" {
			d.base = "http://" + m[1]
		}
		if d.base != "" {
			resp, err := http.Get(d.base + "/readyz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, nil
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.stop()
	return nil, fmt.Errorf("linkclustd not ready after 30s; output:\n%s", d.out.String())
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing it
// if the drain takes over 30 s.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.cmd.Process.Kill()
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("linkclustd exit: %w; output:\n%s", err, d.out.String())
		}
		return nil
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-done
		return errors.New("linkclustd did not drain within 30s")
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// jobRecord is what a client saw of one job.
type jobRecord struct {
	err              error
	traced           bool
	secs             float64
	polls, refused   int
	queueWait, run   float64
	payloadBytes     int // request body plus merges document
	mergesSHA        string
	cached, pairsHit bool
}

// client is one closed-loop client: it submits a job, polls until it is
// done, fetches the merges, and only then takes the next job.
type client struct {
	http *http.Client
	base string
	// corruptOp is the op whose merges document the client flips one bit
	// of on receipt (-1: none); tests use it to prove that served bytes
	// which do not hash to merges_sha256 fail the run.
	corruptOp int
}

// get fetches path and fails on any status but 200.
func (c *client) get(path string) ([]byte, error) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, body)
	}
	return body, err
}

// submit POSTs a job, retrying refusals (429, 503) after 10 ms, and
// returns its status and the number of refusals.
func (c *client) submit(body []byte) (st jobs.Status, refused int, err error) {
	for {
		resp, err := c.http.Post(c.base+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return st, refused, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case err != nil:
			return st, refused, err
		case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
			refused++
			time.Sleep(10 * time.Millisecond)
		case resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted:
			return st, refused, fmt.Errorf("POST /jobs: %d %s", resp.StatusCode, data)
		default:
			return st, refused, json.Unmarshal(data, &st)
		}
	}
}

// await polls the job until it leaves the queue and finishes, backing off
// from 1 ms to 4 ms between polls, and returns its final status and the
// number of polls. The cap bounds how late a client sees a finished job;
// the daemon has no way to push completion. Each wait is scaled by a factor
// from [0.5, 1.5) drawn from dither: on a fixed grid of poll times a short
// job's observed time sticks to the grid points and stops following the
// daemon's speed.
func (c *client) await(st jobs.Status, dither *rng.Source) (jobs.Status, int, error) {
	polls := 0
	wait := time.Millisecond
	for st.State == jobs.StateQueued || st.State == jobs.StateRunning {
		time.Sleep(time.Duration(float64(wait) * (0.5 + dither.Float64())))
		wait = min(wait*3/2, 4*time.Millisecond)
		data, err := c.get("/jobs/" + st.ID)
		polls++
		if err == nil {
			err = json.Unmarshal(data, &st)
		}
		if err != nil {
			return st, polls, err
		}
	}
	if st.State != jobs.StateDone || st.Result == nil {
		return st, polls, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	return st, polls, nil
}

// runJob performs one job — POST /jobs, poll until done, GET the merges —
// and checks the served merges against the digest the daemon reports; a
// disagreement is a mismatch (errMismatch), not a failed job.
func (c *client) runJob(body []byte, tr *tracer, op int) (rec jobRecord) {
	rec.traced = tr != nil
	t0 := time.Now()
	root := tr.begin("op", -1, op)
	defer func() {
		tr.end(root)
		rec.secs = time.Since(t0).Seconds()
	}()
	var st jobs.Status
	tr.call("jobs.submit", root, op, func() { st, rec.refused, rec.err = c.submit(body) })
	if rec.err != nil {
		return rec
	}
	tr.call("jobs.poll", root, op, func() { st, rec.polls, rec.err = c.await(st, rng.New(uint64(op))) })
	if rec.err != nil {
		return rec
	}
	var merges []byte
	tr.call("jobs.merges_fetch", root, op, func() { merges, rec.err = c.get("/jobs/" + st.ID + "/merges") })
	if rec.err != nil {
		return rec
	}
	if op == c.corruptOp && len(merges) > 0 {
		merges[len(merges)/2] ^= 1
	}
	if sum := sha256.Sum256(merges); hex.EncodeToString(sum[:]) != st.Result.MergesSHA256 {
		rec.err = mismatch("job %s: served merges do not hash to merges_sha256", st.ID)
		return rec
	}
	rec.mergesSHA = st.Result.MergesSHA256
	rec.cached, rec.pairsHit = st.Cached, st.PairsHit
	rec.queueWait = st.StartedAt.Sub(st.EnqueuedAt).Seconds()
	rec.run = st.FinishedAt.Sub(st.StartedAt).Seconds()
	rec.payloadBytes = len(body) + len(merges)
	return rec
}

// runService is service-mixed: nproc closed-loop clients drive a linkclustd
// started with -concurrency nproc and a fresh state directory. One op is one
// job: POST /jobs, poll until done, GET the merges.
func runService(rc runConfig) (*outcome, error) {
	spec := serviceFull
	if rc.short {
		spec = serviceShort
	}
	if rc.daemon == "" {
		return nil, errors.New("service-mixed needs -daemon")
	}
	o := newOutcome()
	dir, err := filepath.Abs(filepath.Join(rc.workDir, fmt.Sprintf("service-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var (
		in *serviceInputs
		d  *daemon
	)
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	err = timeSetup(o, 1, func() error {
		var err error
		if in, err = serviceGen(rc.seed, spec); err != nil {
			return err
		}
		d, err = startDaemon(rc.daemon, dir, rc.nproc)
		return err
	}, func() error {
		err := d.stop()
		d, in = nil, nil
		return err
	})
	if err != nil {
		return nil, err
	}

	var tr *tracer
	if rc.trace {
		tr = newTracer()
	}
	transport := &http.Transport{MaxConnsPerHost: rc.nproc, MaxIdleConnsPerHost: rc.nproc}
	defer transport.CloseIdleConnections()
	cl := &client{http: &http.Client{Transport: transport}, base: d.base, corruptOp: -1}
	if rc.corruptServed {
		cl.corruptOp = 0
	}
	records := make([]jobRecord, len(in.jobs))
	finished := make([]chan struct{}, len(in.jobs))
	for i := range finished {
		finished[i] = make(chan struct{})
	}
	var (
		next atomic.Int64
		ran  atomic.Int64
		wg   sync.WaitGroup
		cal  []float64
	)
	calibrateN := func() {
		for range serviceCalibrations {
			cal = append(cal, calibrate(rc.nproc))
		}
	}
	// drive is one client: it takes jobs in sequence order until the
	// segment's deadline has passed and the first minJobs jobs are taken. A
	// job taken is always run, so no job of a later segment waits on a job
	// that never ran.
	drive := func(deadline time.Time) {
		defer wg.Done()
		for !time.Now().After(deadline) || next.Load() < int64(spec.minJobs) {
			k := int(next.Add(1) - 1)
			if k >= len(in.jobs) {
				return
			}
			ran.Add(1)
			js := in.jobs[k]
			if js.After >= 0 {
				<-finished[js.After]
			}
			opTr := tr
			if k%2 == 0 {
				opTr = nil
			}
			body, err := json.Marshal(jobs.SubmitRequest{
				Graph: string(in.text(js.Graph)), Options: jobs.Options{Algorithm: js.Algo},
			})
			if err != nil {
				records[k].err = err
			} else {
				records[k] = cl.runJob(body, opTr, k)
			}
			close(finished[k])
		}
	}
	var elapsed float64
	segment := time.Duration(rc.seconds / serviceSegments * float64(time.Second))
	for range serviceSegments {
		calibrateN()
		start := time.Now()
		for range rc.nproc {
			wg.Add(1)
			go drive(start.Add(segment))
		}
		wg.Wait()
		elapsed += time.Since(start).Seconds()
	}
	calibrateN()
	// Jobs run in sequence order, so the ones run are a prefix.
	n := int(ran.Load())
	records = records[:n]
	o.detail["sequence_exhausted"] = n == len(in.jobs)

	if o.metrics["peak_rss_mb"], err = peakRSSMB(strconv.Itoa(d.cmd.Process.Pid)); err != nil {
		return nil, err
	}
	state, err := dirBytes(filepath.Join(dir, "state"))
	if err != nil {
		return nil, err
	}
	// The sequence keeps every cache hit in the memory tier; the disk-tier
	// hit counts show that it did.
	var dm jobs.Metrics
	data, err := cl.get("/metrics")
	if err == nil {
		err = json.Unmarshal(data, &dm)
	}
	if err != nil {
		return nil, fmt.Errorf("reading /metrics: %w", err)
	}
	o.detail["disk_cache_hits_result"] = dm.DiskHitResult
	o.detail["disk_cache_hits_pairs"] = dm.DiskHitPairs
	stopErr := d.stop()
	d = nil
	if stopErr != nil {
		return nil, stopErr
	}

	// Tally, and check each job's cache outcome against the sequence. A
	// served output that is wrong fails the run; failed counts only jobs
	// that failed, were cancelled or were refused.
	var (
		all, cold, cached               []float64
		tracedByClass                   = map[string][]float64{}
		untracedByClass                 = map[string][]float64{}
		perMB                           []float64
		failed, refused, polls          int
		edges                           int64
		waits, runs                     []float64
		resultHits, pairsHits, computed int
	)
	for k := range records {
		r := &records[k]
		js := in.jobs[k]
		refused += r.refused
		if r.err == nil && (r.cached != (js.Kind == kindResultHit) || (!r.cached && r.pairsHit != (js.Kind == kindPairsHit))) {
			r.err = mismatch("job %d: cached=%v pairs_hit=%v, sequence says %s", k, r.cached, r.pairsHit, js.Kind)
		}
		if errors.Is(r.err, errMismatch) {
			return nil, r.err
		}
		if r.err != nil || r.refused > 0 {
			failed++
		}
		if r.err != nil {
			o.detail["first_error"] = r.err.Error()
			continue
		}
		all = append(all, r.secs)
		edges += int64(in.numEdges(js.Graph))
		polls += r.polls
		// Traced and untraced jobs are compared like with like: same kind,
		// same grid graph.
		class := fmt.Sprintf("%s/%s/%d", js.Kind, js.Algo, in.gridIndex(js.Graph))
		if r.traced {
			tracedByClass[class] = append(tracedByClass[class], r.secs)
		} else {
			untracedByClass[class] = append(untracedByClass[class], r.secs)
		}
		switch js.Kind {
		case kindCold:
			if js.Algo == jobs.AlgoSweep {
				cold = append(cold, r.secs)
			}
		case kindResultHit:
			cached = append(cached, r.secs)
			perMB = append(perMB, r.secs/(float64(r.payloadBytes)/1e6))
		}
		if !r.cached {
			waits = append(waits, r.queueWait)
			runs = append(runs, r.run)
		}
		if k < spec.minJobs {
			if r.cached {
				resultHits++
			} else {
				computed++
				if r.pairsHit {
					pairsHits++
				}
			}
		}
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("no job completed: %v", o.detail["first_error"])
	}
	o.setOps(all, edges, elapsed, 95, cal)
	o.attempted, o.failed = len(records), failed
	o.detail["job_s_p50"] = o.detail["raw_op_s_p50"]
	o.detail["job_s_tail"] = o.detail["raw_op_s_tail"]
	o.detail["jobs_per_s"] = o.detail["raw_ops_per_s"]
	o.detail["cold_job_s_p50"] = median(cold)
	o.detail["cached_job_s_p50"] = median(cached)
	o.detail["cold_jobs"] = len(cold)
	o.detail["cached_jobs"] = len(cached)
	o.detail["fail_ratio"] = float64(failed) / float64(len(records))
	o.detail["refused"] = refused

	// Verify every served merge stream against an in-process serial run of
	// its graph and algorithm. The traced run also splits the cold path into
	// layers here, replaying the first minJobs' cold graphs at T=1.
	var replayTr *tracer
	if rc.trace {
		replayTr = newTracer()
	}
	layerRec := linkclust.NewRecorder()
	var layers replayStats
	refs := map[[2]int]string{}
	for k, r := range records {
		js := in.jobs[k]
		if r.err != nil || js.Kind != kindCold {
			continue
		}
		coarse := false
		for j := k + 1; j < len(records); j++ {
			if in.jobs[j].Graph == js.Graph && in.jobs[j].Algo == jobs.AlgoCoarse {
				coarse = true
				break
			}
		}
		// The traced run replays the first minJobs' cold jobs at one worker,
		// as the daemon ran them; other replays use every CPU, and so check
		// the daemon's serial engine against the parallel one.
		var (
			opTr    *tracer
			rec     *linkclust.Recorder
			workers = rc.nproc
		)
		if k < spec.minJobs && rc.trace {
			opTr, rec, workers = replayTr, layerRec, 1
		}
		sweepSHA, coarseSHA, st, err := replayColdJob(in.text(js.Graph), coarse, workers, opTr, k, rec)
		if err != nil {
			return nil, err
		}
		if opTr != nil {
			layers.add(st)
		}
		refs[[2]int{js.Graph, 0}] = sweepSHA
		if coarse {
			refs[[2]int{js.Graph, 1}] = coarseSHA
		}
	}
	if rc.corrupt {
		// Job 0 is always a cold sweep.
		key := [2]int{in.jobs[0].Graph, 0}
		refs[key] = flipHex(refs[key])
	}
	for k, r := range records {
		if r.err != nil {
			continue
		}
		js := in.jobs[k]
		a := 0
		if js.Algo == jobs.AlgoCoarse {
			a = 1
		}
		if want := refs[[2]int{js.Graph, a}]; r.mergesSHA != want {
			return nil, mismatch("job %d (%s on pool graph %d): served %.16s, reference %.16s", k, js.Algo, js.Graph, r.mergesSHA, want)
		}
	}

	if rc.trace {
		addSelfTimes(o, tr, map[string]string{
			"jobs.submit": "jobs.submit_s", "jobs.poll": "", "jobs.merges_fetch": "jobs.merges_fetch_s",
		})
		if root := tr.rootSeconds(); root > 0 {
			o.metrics["trace.unaccounted_share"] = tr.selfTimes()["op"] / root
		}
		// Tracing adds a few spans per job; its overhead is the traced jobs'
		// median against the untraced ones', class by class, weighted by
		// count.
		var w, acc float64
		for class, t := range tracedByClass {
			if u := untracedByClass[class]; len(u) > 0 {
				acc += float64(len(t)) * (median(t)/median(u) - 1)
				w += float64(len(t))
			}
		}
		if w > 0 {
			o.metrics["trace.overhead_share"] = acc / w
		}
		addSelfTimes(o, replayTr, map[string]string{
			"graph.parse": "graph.parse_s", "graph.canon": "graph.canon_s",
		})
		coreCounts(layerRec, o.metrics)
		if layers.coarseProcessed > 0 {
			o.metrics["coarse.wasted_ratio"] = float64(layers.coarseWasted) / float64(layers.coarseProcessed)
		}
		if n := float64(replayTr.ops()); n > 0 {
			o.metrics["graph.text_bytes"] = float64(layers.textBytes) / n
			o.metrics["encode.bytes"] = float64(layers.encodeBytes) / n
			for _, c := range []string{"similarity.pairs", "similarity.incident_pairs",
				"sweep.chain_rewrites", "sweep.windows", "sweep.rounds", "sweep.noop_drops"} {
				o.metrics[c] /= n
			}
		}
		o.metrics["jobs.queue_wait_s"] = mean(waits)
		o.metrics["jobs.run_s"] = mean(runs)
		o.metrics["jobs.polls_per_job"] = float64(polls) / float64(len(all))
		o.metrics["jobs.cached_s_per_mb"] = median(perMB)
		o.metrics["jobs.cold_job_s_p50"] = median(cold)
		o.metrics["jobs.cached_job_s_p50"] = median(cached)
		if min(spec.minJobs, len(records)) > 0 {
			o.metrics["jobs.result_hit_ratio"] = float64(resultHits) / float64(min(spec.minJobs, len(records)))
		}
		if computed > 0 {
			o.metrics["jobs.pairs_hit_ratio"] = float64(pairsHits) / float64(computed)
		}
		o.metrics["persist.state_bytes"] = float64(state) / float64(len(all))
	}
	return o, nil
}

// flipHex changes the first digit of a hex digest.
func flipHex(h string) string {
	if h == "" || h[0] == '0' {
		return "1" + h[min(1, len(h)):]
	}
	return "0" + h[1:]
}

// replayStats are the byte and op counts of replayed cold jobs.
type replayStats struct {
	textBytes, encodeBytes        int64
	coarseWasted, coarseProcessed int64
}

func (r *replayStats) add(o replayStats) {
	r.textBytes += o.textBytes
	r.encodeBytes += o.encodeBytes
	r.coarseWasted += o.coarseWasted
	r.coarseProcessed += o.coarseProcessed
}

// replayColdJob runs a cold job's path in-process — parse, canonical
// serialization and content hash, Phase I, sort, sweep, merge encoding, and
// the coarse sweep when the sequence asks for one — and returns the
// merge-stream digests the daemon must serve. With a tracer each call is a
// span.
func replayColdJob(text []byte, coarse bool, workers int, tr *tracer, op int, rec *linkclust.Recorder) (sweepSHA, coarseSHA string, st replayStats, err error) {
	ctx := context.Background()
	root := tr.begin("op", -1, op)
	defer tr.end(root)
	st.textBytes = int64(len(text))
	var g *linkclust.Graph
	tr.call("graph.parse", root, op, func() { g, err = linkclust.ReadGraph(bytes.NewReader(text)) })
	if err != nil {
		return "", "", st, err
	}
	tr.call("graph.canon", root, op, func() {
		var canon bytes.Buffer
		if err = linkclust.WriteGraph(&canon, g); err == nil {
			sha256.Sum256(canon.Bytes())
		}
	})
	if err != nil {
		return "", "", st, err
	}
	res, pl, err := clusterSteps(ctx, g, workers, tr, root, op, rec, coarse)
	if err != nil {
		return "", "", st, err
	}
	encode := func(merges []linkclust.Merge) (string, error) {
		var (
			sum [32]byte
			n   int
			err error
		)
		tr.call("encode", root, op, func() { sum, n, err = mergesSHA(g.NumEdges(), merges) })
		st.encodeBytes += int64(n)
		return hex.EncodeToString(sum[:]), err
	}
	if sweepSHA, err = encode(res.Merges); err != nil || !coarse {
		return sweepSHA, "", st, err
	}
	params := linkclust.DefaultCoarseParams()
	params.Workers = workers
	var cres *linkclust.CoarseResult
	tr.call("coarse", root, op, func() { cres, err = linkclust.CoarseSweepCtx(ctx, g, pl, params, rec) })
	if err != nil {
		return "", "", st, err
	}
	st.coarseWasted, st.coarseProcessed = cres.OpsWasted, cres.OpsProcessed
	coarseSHA, err = encode(cres.Merges)
	return sweepSHA, coarseSHA, st, err
}
