// Command perfbench is the RepChain benchmark. It drives the system
// only through public entry points — the repchain facade (Chain and
// Cluster), the repchain-node and repchain-keygen binaries, a load
// process of its own that hosts the providers through
// transport.RunNode, admin endpoints, chain directories and the OS —
// and checks every output for correctness before it reports a number.
//
// Usage (normally through run.sh, which builds the binaries first):
//
//	perfbench -bin DIR -work DIR --workload NAME --seed N --seconds S --trace 0|1
//
// The workloads are described in WORKLOADS.md. With --trace 0 the last
// line of standard output is a JSON object holding the end-to-end
// metrics; with --trace 1 it holds the per-layer metrics of a traced
// run. A human-readable report of every metric goes to standard error.
// A failed correctness check prints correct=false and exits 3.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(ctx context.Context, rc *runCtx) (*report, error){
	"engine-light":      runEngineLight,
	"cluster-saturated": runClusterSaturated,
	"tcp-steady":        func(ctx context.Context, rc *runCtx) (*report, error) { return runTCP(ctx, rc, false) },
	"tcp-restart":       func(ctx context.Context, rc *runCtx) (*report, error) { return runTCP(ctx, rc, true) },
}

// workloadOrder is the order `--workload all` runs them in.
var workloadOrder = []string{"engine-light", "cluster-saturated", "tcp-steady", "tcp-restart"}

// runCtx is what every workload runner receives.
type runCtx struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	binDir   string
	// runDir is this run's own directory (chain dirs, rosters,
	// node state); it is removed when the run ends.
	runDir string
	// outPrefix names this run's artifacts under the out directory.
	outPrefix string
	calib     calibration
	spans     *spanRecorder
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "load" {
		if err := loadMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench load:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(benchMain())
}

func benchMain() int {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadOrder, ", ")+", or all")
		seed     = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 20, "measured window in seconds")
		traceFl  = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		binDir   = flag.String("bin", "", "directory holding repchain-node, repchain-keygen and perfbench")
		workDir  = flag.String("work", ".bench_build", "directory for run state and results")
	)
	flag.Parse()
	if *seconds < 1 || (*traceFl != 0 && *traceFl != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	if *workload == "all" {
		return runAll(*seed, *seconds, *traceFl)
	}
	runner, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s, or all)\n", *workload, strings.Join(workloadOrder, ", "))
		return 2
	}
	work, err := filepath.Abs(*workDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	bin := *binDir
	if bin == "" {
		bin = filepath.Join(work, "bin")
	}
	if bin, err = filepath.Abs(bin); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	outDir := filepath.Join(work, "out")
	runDir := filepath.Join(work, "run", fmt.Sprintf("%s-%d", *workload, os.Getpid()))
	for _, d := range []string{outDir, runDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	defer os.RemoveAll(runDir)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rc := &runCtx{
		workload:  *workload,
		seed:      *seed,
		window:    time.Duration(*seconds) * time.Second,
		traced:    *traceFl == 1,
		binDir:    bin,
		runDir:    runDir,
		outPrefix: filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", *workload, *seed, *traceFl)),
		calib:     calibrate(),
	}
	if rc.traced {
		rc.spans = newSpanRecorder()
	}
	rep, err := runner(ctx, rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	rep.addCalibration(rc.calib)
	if rc.traced {
		rep.addSpanMetrics(rc.spans, rep.committed)
		if err := rc.spans.writeJSONL(rc.outPrefix + "-spans.jsonl"); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write spans:", err)
			return 1
		}
	}
	res := rep.result(rc.traced)
	var text bytes.Buffer
	rep.print(&text, rc)
	os.Stderr.Write(text.Bytes())
	if err := os.WriteFile(rc.outPrefix+"-report.txt", text.Bytes(), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := writeLatencies(rc.outPrefix+"-latency.tsv", rep.latency); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: write latencies:", err)
		return 1
	}
	if err := os.WriteFile(rc.outPrefix+"-result.json", append(line, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 3
	}
	return 0
}

// runAll runs every workload in its own child process, so each one's
// resident-memory and CPU accounting starts clean, and fails if any
// of them fails.
func runAll(seed int64, seconds, traced int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	code := 0
	for _, w := range workloadOrder {
		args := []string{
			"-bin", flag.Lookup("bin").Value.String(), "-work", flag.Lookup("work").Value.String(),
			"-workload", w, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(traced),
		}
		fmt.Fprintf(os.Stderr, "=== %s\n", w)
		if c := runChild(self, args); c != 0 && code == 0 {
			code = c
		}
	}
	return code
}

func runChild(path string, args []string) int {
	p, err := os.StartProcess(path, append([]string{path}, args...), &os.ProcAttr{Files: []*os.File{os.Stdin, os.Stdout, os.Stderr}})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	st, err := p.Wait()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return st.ExitCode()
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's outcome.
type report struct {
	// attempted counts valid transactions offered; failed counts those
	// not committed valid by the end of the drain (refusals, halts and
	// node exits included).
	attempted, failed int
	// committed counts valid transactions committed valid, the base of
	// every per-transaction metric.
	committed int
	// violations lists failed correctness checks.
	violations []string
	endToEnd   map[string]metric
	perLayer   map[string]metric
	// notes are extra lines for the human report: sample counts, node
	// exits, halts.
	notes []string
	// latency keeps the latency samples, written out with the result.
	latency []latencySample
}

func newReport() *report {
	return &report{endToEnd: map[string]metric{}, perLayer: map[string]metric{}}
}

func (r *report) e2e(name string, v float64)   { r.endToEnd[name] = metric{v, mustUnit(name)} }
func (r *report) layer(name string, v float64) { r.perLayer[name] = metric{v, mustUnit(name)} }
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// mustUnit returns a metric's unit; an unlisted name is a bug in the
// benchmark.
func mustUnit(name string) string {
	u, ok := units[name]
	if !ok {
		panic("perfbench: unlisted metric " + name)
	}
	return u
}

func (r *report) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// check records a violation when err is non-nil.
func (r *report) check(what string, err error) {
	if err != nil {
		r.violate("%s: %v", what, err)
	}
}

func (r *report) result(traced bool) result {
	res := result{
		Correct:   len(r.violations) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	if res.Attempted < 1 {
		res.Correct = false
	}
	if !res.Correct {
		return res
	}
	src := r.endToEnd
	names := endToEndNames
	if traced {
		src, names = r.perLayer, perLayerNames
	}
	for _, n := range names {
		m, ok := src[n.name]
		if !ok {
			// Every workload reports every metric; a gap is a bug in
			// the benchmark, surfaced as a failed run.
			res.Correct = false
			r.violate("metric %s not reported", n.name)
			continue
		}
		res.Metrics[n.name] = m
	}
	return res
}

func (r *report) print(w io.Writer, rc *runCtx) {
	fmt.Fprintf(w, "perfbench %s seed=%d window=%s traced=%v\n", rc.workload, rc.seed, rc.window, rc.traced)
	fmt.Fprintf(w, "  valid txs attempted=%d failed=%d\n", r.attempted, r.failed)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	dump := func(title string, m map[string]metric) {
		fmt.Fprintf(w, "  %s:\n", title)
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "    %-36s %14.6g %s\n", k, m[k].Value, m[k].Unit)
		}
	}
	dump("end-to-end", r.endToEnd)
	if rc.traced {
		dump("per-layer", r.perLayer)
	}
	if len(r.violations) > 0 {
		fmt.Fprintf(w, "  CORRECTNESS CHECKS FAILED (%d):\n", len(r.violations))
		for i, v := range r.violations {
			if i == 20 {
				fmt.Fprintf(w, "    ... %d more\n", len(r.violations)-i)
				break
			}
			fmt.Fprintf(w, "    %s\n", v)
		}
	}
}

// writeLatencies writes one line per valid committed transaction: its
// due time from the start of the window and its latency, in ms.
func writeLatencies(path string, lat []latencySample) error {
	var b strings.Builder
	b.WriteString("due_ms\tlatency_ms\n")
	for _, s := range lat {
		fmt.Fprintf(&b, "%.3f\t%.3f\n", float64(s.due)/1e6, s.ms)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
