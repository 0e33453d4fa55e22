package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// daemonBin is the linkclustd binary TestMain builds for service-mixed.
var daemonBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		panic(err)
	}
	daemonBin = filepath.Join(dir, "linkclustd")
	out, err := exec.Command("go", "build", "-o", daemonBin, "linkclust/cmd/linkclustd").CombinedOutput()
	if err != nil {
		os.RemoveAll(dir)
		panic("building linkclustd: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the program in step:
// the same workloads, and the same metrics with the same units.
func TestBenchmarkFileMatches(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for n := range workloads {
		want = append(want, n)
	}
	slices.Sort(names)
	slices.Sort(want)
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}

// workloadInputs renders everything a workload hands the program at a seed:
// graph texts in the library's format, plus the job sequence of
// service-mixed.
func workloadInputs(t *testing.T, name string, seed uint64) []byte {
	t.Helper()
	var b bytes.Buffer
	graphs := func(spec clusterSpec) {
		gs, err := wordGraphs(seed, spec.size, spec.alphas)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range gs {
			text, err := graphText(g)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(text)
		}
	}
	switch name {
	case "cluster-wordassoc":
		graphs(clusterFull)
	case "communities-t1":
		graphs(communitiesFull)
	case "stream-trickle":
		graphs(clusterSpec{streamFull.size, []float64{streamFull.alpha}})
	case "service-mixed":
		in, err := serviceGen(seed, serviceFull)
		if err != nil {
			t.Fatal(err)
		}
		pool := 0
		for _, js := range in.jobs {
			pool = max(pool, js.Graph+1)
		}
		for i := range pool {
			b.Write(in.text(i))
		}
		if err := json.NewEncoder(&b).Encode(in.jobs); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("no inputs for workload %q", name)
	}
	return b.Bytes()
}

// TestInputsFollowSeed: a seed fixes a workload's inputs byte for byte, and
// another seed changes them.
func TestInputsFollowSeed(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			a, again, other := workloadInputs(t, name, 7), workloadInputs(t, name, 7), workloadInputs(t, name, 8)
			if !bytes.Equal(a, again) {
				t.Error("two generations at one seed differ")
			}
			if bytes.Equal(a, other) {
				t.Error("seeds 7 and 8 generate the same inputs")
			}
		})
	}
}

// TestJobSequenceWaitsOnItsSource: every job that expects a cache hit waits
// for the job that fills that cache entry, and a resubmit follows its target
// closely enough that the result is still in the daemon's memory cache.
func TestJobSequenceWaitsOnItsSource(t *testing.T) {
	seq := jobSequence(3, serviceFull)
	for k, js := range seq {
		switch js.Kind {
		case kindCold:
			if js.After != -1 || js.Algo != "sweep" {
				t.Fatalf("job %d: cold job %+v", k, js)
			}
		default:
			src := seq[js.After]
			if js.After >= k || src.Graph != js.Graph || src.Kind == kindResultHit {
				t.Fatalf("job %d (%+v) waits on job %d (%+v)", k, js, js.After, src)
			}
			if js.Kind == kindPairsHit && (src.Kind != kindCold || js.Algo != "coarse") {
				t.Fatalf("job %d: coarse job %+v waits on %+v", k, js, src)
			}
			if js.Kind == kindResultHit && src.Algo != js.Algo {
				t.Fatalf("job %d: resubmit %+v waits on %+v", k, js, src)
			}
			if js.Kind == kindResultHit {
				n := 0
				for _, b := range seq[js.After+1 : k] {
					if b.Kind != kindResultHit {
						n++
					}
				}
				if n >= 4*len(serviceFull.alphas) {
					t.Fatalf("job %d: %d results between the resubmit and its target", k, n)
				}
			}
		}
	}
}

// TestWorkloadsShort runs every workload on its short inputs, untraced and
// traced: each run must print every metric BENCHMARK.json names, with its
// unit, and the end-to-end metrics must be positive. A corrupted reference
// must fail the run, and so must, in service-mixed, a served merges
// document that does not hash to the digest served with it.
func TestWorkloadsShort(t *testing.T) {
	bf := readBenchmarkFile(t)
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				rc := runConfig{seed: 5, seconds: 0.05, trace: traced, nproc: runtime.NumCPU(),
					daemon: daemonBin, workDir: t.TempDir(), short: true}
				var out bytes.Buffer
				if err := execute(name, rc, &out); err != nil {
					t.Fatalf("trace=%v: %v", traced, err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct           bool
					Attempted, Failed int
					Metrics           map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("trace=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
				}
				want := bf.EndToEnd
				if traced {
					want = bf.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics, want %d", traced, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("trace=%v: metric %s missing", traced, m.Name)
					case got.Unit != m.Unit:
						t.Errorf("trace=%v: metric %s unit %q, want %q", traced, m.Name, got.Unit, m.Unit)
					case !traced && !(got.Value > 0):
						t.Errorf("metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
			}

			corruptions := map[string]runConfig{"corrupted reference": {corrupt: true}}
			if name == "service-mixed" {
				corruptions["corrupted served merges"] = runConfig{corruptServed: true}
			}
			for what, rc := range corruptions {
				rc.seed, rc.seconds, rc.nproc, rc.short = 5, 0.05, runtime.NumCPU(), true
				rc.daemon, rc.workDir = daemonBin, t.TempDir()
				var out bytes.Buffer
				if err := execute(name, rc, &out); !errors.Is(err, errMismatch) {
					t.Fatalf("%s: err = %v, want a mismatch", what, err)
				}
				if !strings.Contains(out.String(), `"correct":false`) {
					t.Errorf("%s: result line %q does not say correct:false", what, out.String())
				}
			}
		})
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median = %v, want 3", q)
	}
	if q := quantile(xs, 1); q != 5 {
		t.Errorf("max = %v, want 5", q)
	}
	if q := quantile(xs, 0.25); q != 2 {
		t.Errorf("p25 = %v, want 2", q)
	}
}
