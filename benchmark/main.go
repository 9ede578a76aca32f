// Command benchmark is the repository's benchmark: six workloads across the
// live path, the log pipeline and the simulator, each run in a process of
// its own, with end-to-end metrics measured untraced and per-layer metrics
// from a separate traced run. README.md explains every metric and workload;
// ../BENCHMARK.json is the contract the numbers are judged by.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"
)

// runCtx is what one run of one workload is given.
type runCtx struct {
	seed    int64
	seconds float64
	rec     *recorder // nil when untraced
	dir     string    // scratch directory of this process, removed at exit
	// scale divides the fixed-work sizes and setups the repetitions; 1 in a
	// real run, larger in the smoke test.
	scale int
}

func (rc *runCtx) duration() time.Duration {
	return time.Duration(rc.seconds * float64(time.Second))
}

// env is a workload that has been set up: inputs generated from the seed,
// the system under test started and warmed.
type env interface {
	run(rc *runCtx) (*outcome, error)
	close()
}

// outcome is what a workload's measured part reports.
type outcome struct {
	opsPerSec float64   // the workload's own operation, see README
	lat       []float64 // ms, one per timed operation
	attempted int
	failed    int
	failures  []string // first few failed gates, for the log
	extra     []metric // workload-specific numbers under their own names
}

// eachClient runs fn once per load generator, concurrently, and waits.
func eachClient(fn func(cl int)) {
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(cl)
		}()
	}
	wg.Wait()
}

// clientRand is load generator cl's own stream of the run's seed.
func clientRand(seed int64, cl int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000 + int64(cl) + 1))
}

func (o *outcome) fail(why string) {
	o.failed++
	if len(o.failures) < 5 {
		o.failures = append(o.failures, why)
	}
}

type workloadDef struct {
	name  string
	op    string // what ops_per_s and op_ms_p50 count on this workload
	setup func(rc *runCtx) (env, error)
}

// workloads in the order they run; BENCHMARK.json carries the rationale.
var workloads = []workloadDef{
	{"edge_bulk", "32 MiB edge-only downloads", setupEdgeBulk},
	{"swarm_bulk", "32 MiB peer-assisted downloads", setupSwarmBulk},
	{"control_mix", "control-plane operations (latency: queries at a fixed rate)", setupControlMix},
	{"log_ingest", "log records ingested (latency: what a record waits for its batch's POST)", setupLogIngest},
	{"analyze_offline", "log records analyzed (latency: one pass)", setupAnalyzeOffline},
	{"sim_month", "simulated downloads (latency: one run plus report)", setupSimMonth},
}

// setups is how many times a run sets up; setup_s is their median.
const setups = 3

// report is everything one run of one workload measured.
type report struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Traced    bool     `json:"traced"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	EndToEnd  []metric `json:"endToEnd"`
	Extra     []metric `json:"extra,omitempty"`
	PerLayer  []metric `json:"perLayer,omitempty"`
}

// runWorkload sets the workload up (several times, for a steady setup_s),
// measures it, and in a traced run adds the per-layer metrics.
func runWorkload(w workloadDef, rc *runCtx, outDir string) (*report, error) {
	var (
		e      env
		setupS []float64
	)
	for i := 0; i < max(1, setups/rc.scale); i++ {
		if e != nil {
			e.close()
		}
		t := time.Now()
		var err error
		if e, err = w.setup(rc); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t).Seconds())
	}
	defer e.close()

	out, err := e.run(rc)
	if err != nil {
		return nil, err
	}
	rep := &report{
		Workload: w.name, Seed: rc.seed, Seconds: rc.seconds, Traced: rc.rec != nil,
		Attempted: out.attempted, Failed: out.failed, Failures: out.failures,
		Correct: out.failed == 0 && out.attempted > 0,
		Extra:   out.extra,
	}
	label, tailMs := tail(out.lat)
	rep.EndToEnd = []metric{
		{"ops_per_s", "1/s", out.opsPerSec, len(out.lat)},
		{"op_ms_p50", "ms", median(out.lat), len(out.lat)},
		{"peak_rss_mb", "MB", peakRSSMB(), 1},
		{"setup_s", "s", median(setupS), len(setupS)},
	}
	rep.Extra = append(rep.Extra, metric{"op_ms_" + label, "ms", tailMs, len(out.lat)})
	if rc.rec == nil {
		return rep, nil
	}

	rows, total := rc.rec.selfTimes()
	printShareTable(rows, total)
	shares := layerShares(rows, total)
	for _, layer := range tracedLayers {
		rep.PerLayer = append(rep.PerLayer, metric{"share." + layer, "ratio", shares[layer], len(rc.rec.spans)})
	}
	rep.PerLayer = append(rep.PerLayer,
		metric{"op_ms_tail", "ms", tailMs, len(out.lat)},
		metric{"goodput_mbps", "MB/s", extraValue(out.extra, "goodput_mbps"), len(out.lat)},
		metric{"peer_byte_share", "ratio", extraValue(out.extra, "peer_byte_share"), len(out.lat)})
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if err := rc.rec.writeFile(filepath.Join(outDir, "trace-"+w.name+".json"), w.name, rc.seed); err != nil {
		return nil, err
	}
	probes, err := runProbes(rc)
	if err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	rep.PerLayer = append(rep.PerLayer, probes...)
	return rep, nil
}

func extraValue(ms []metric, name string) float64 {
	for _, m := range ms {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// contractLine is the last line of a single-workload run, in the form the
// driver reads.
func contractLine(rep *report) string {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := rep.EndToEnd
	if rep.Traced {
		ms = rep.PerLayer
	}
	vals := make(map[string]val, len(ms))
	for _, m := range ms {
		vals[m.Name] = val{m.Value, m.Unit}
	}
	blob, _ := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, vals})
	return string(blob)
}

func header() string {
	return fmt.Sprintf("netsession benchmark: %s GOMAXPROCS=%d nproc=%d %s/%s; all traffic crosses the host's loopback interface; %d closed-loop clients",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH, clients)
}

// runOne is a single-workload process: the mode the driver uses, and the
// child of a run over all workloads.
func runOne(w workloadDef, seed int64, seconds float64, traced bool, outDir string) int {
	fmt.Println(header())
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	dir, err := os.MkdirTemp(outDir, "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	defer os.RemoveAll(dir)
	rc := &runCtx{seed: seed, seconds: seconds, dir: dir, scale: 1}
	if traced {
		rc.rec = newRecorder()
	}
	fmt.Printf("workload %s seed=%d seconds=%g traced=%v: ops are %s\n", w.name, seed, seconds, traced, w.op)
	rep, err := runWorkload(w, rc, outDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		return 2
	}
	printed := map[string]bool{} // a traced run carries a few numbers in two groups
	for _, group := range [][]metric{rep.EndToEnd, rep.PerLayer, rep.Extra} {
		for _, m := range group {
			if !printed[m.Name] {
				fmt.Println(m)
			}
			printed[m.Name] = true
		}
	}
	fmt.Printf("  failed_op_share %d/%d\n", rep.Failed, rep.Attempted)
	for _, f := range rep.Failures {
		fmt.Println("  FAILED GATE:", f)
	}
	blob, _ := json.Marshal(rep)
	fmt.Println("report " + string(blob))
	fmt.Println(contractLine(rep))
	if !rep.Correct {
		return 1
	}
	return 0
}

// runChild re-executes this binary for one workload, so each gets a clean
// peak RSS and a clean set-up, and returns its report.
func runChild(name string, seed int64, seconds float64, traced bool, outDir string) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", t, "-out", outDir)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	var rep *report
	for _, line := range strings.Split(string(stdout), "\n") {
		if rest, ok := strings.CutPrefix(line, "report "); ok {
			rep = new(report)
			if err := json.Unmarshal([]byte(rest), rep); err != nil {
				return nil, err
			}
		} else if line != "" && !strings.HasPrefix(line, "{") && !strings.HasPrefix(line, "netsession benchmark:") {
			fmt.Println(line)
		}
	}
	if rep == nil {
		return nil, fmt.Errorf("workload %s printed no report: %v", name, runErr)
	}
	return rep, nil
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", 10, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1: record spans and report the per-layer metrics")
		sets     = flag.Int("sets", 1, "with -workload all: run the whole set this many times and compare")
		jsonPath = flag.String("json", "", "with -workload all: also write one JSON line per run here")
		outDir   = flag.String("out", "out", "directory for span files and scratch data")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 || *sets < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if *workload != "all" {
		for _, w := range workloads {
			if w.name == *workload {
				os.Exit(runOne(w, *seed, *seconds, *trace == 1, *outDir))
			}
		}
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	os.Exit(runAll(*seed, *seconds, *trace == 1, *sets, *jsonPath, *outDir))
}

// runAll runs every workload, each in its own process: untraced for the
// end-to-end metrics, then (with -trace 1) traced for the per-layer ones and
// the tracing overhead. With -sets N it repeats the untraced set and checks
// that every end-to-end metric repeats within its bound.
func runAll(seed int64, seconds float64, traced bool, sets int, jsonPath, outDir string) int {
	fmt.Println(header())
	var jsonOut *os.File
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		defer f.Close()
		jsonOut = f
	}
	emit := func(rep *report) {
		if jsonOut != nil {
			blob, _ := json.Marshal(rep)
			fmt.Fprintln(jsonOut, string(blob))
		}
	}
	status := 0
	all := make([][]*report, sets) // [set][workload]
	for s := 0; s < sets; s++ {
		for _, w := range workloads {
			fmt.Printf("--- set %d: %s (untraced)\n", s+1, w.name)
			rep, err := runChild(w.name, seed, seconds, false, outDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 2
			}
			if !rep.Correct {
				status = 1
			}
			emit(rep)
			all[s] = append(all[s], rep)
		}
	}
	if traced {
		fmt.Println("--- traced runs: spans are recorded from the benchmark's own files only")
		for i, w := range workloads {
			fmt.Printf("--- %s (traced)\n", w.name)
			rep, err := runChild(w.name, seed, seconds, true, outDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 2
			}
			if !rep.Correct {
				status = 1
			}
			emit(rep)
			plain := all[0][i].EndToEnd[0].Value
			fmt.Printf("  trace_overhead_pct %.2f %% (ops_per_s %.4f untraced, %.4f traced); spans in %s\n",
				100*(plain-rep.EndToEnd[0].Value)/plain, plain, rep.EndToEnd[0].Value,
				filepath.Join(outDir, "trace-"+w.name+".json"))
		}
	}
	if sets > 1 && !repeatable(all) {
		status = 1
	}
	return status
}

// repeatable prints, per workload and end-to-end metric, the value of every
// set, the largest difference from the first set and the bound, and reports
// whether every difference is within its bound.
func repeatable(all [][]*report) bool {
	fmt.Println("--- repeatability: largest difference from set 1, as a share of set 1")
	ok := true
	for wi, w := range workloads {
		for mi, d := range endToEnd {
			first := all[0][wi].EndToEnd[mi].Value
			worst := 0.0
			vals := make([]string, len(all))
			for s := range all {
				v := all[s][wi].EndToEnd[mi].Value
				vals[s] = fmt.Sprintf("%.4f", v)
				if diff := math.Abs(v-first) / first; diff > worst {
					worst = diff
				}
			}
			verdict := "ok"
			if worst > d.Bound {
				verdict, ok = "EXCEEDS BOUND", false
			}
			fmt.Printf("  %-16s %-12s %-8s %s  diff %.3f  bound %.2f  %s\n",
				w.name, d.Name, d.Unit, strings.Join(vals, " "), worst, d.Bound, verdict)
		}
	}
	return ok
}
