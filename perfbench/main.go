// Command perfbench is the HARP daemon-path benchmark. It runs one workload
// for a fixed wall-clock window, checks every output, and prints one JSON
// result line (the last line of standard output):
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Every workload reports every metric: a run gives its own path (the socket
// closed loop or the simulated machine) three quarters of the window and the
// other path the rest. With -trace 0 the metrics are the end-to-end metrics;
// with -trace 1 each path is split into an untraced half and a traced half,
// and the metrics are the per-layer numbers plus the tracing overhead. See
// README.md for the workloads, the metrics and what each one is expected to
// move.
//
// Usage (normally through run.sh, which builds this package first and runs
// it from the checkout root):
//
//	perfbench -work <scratch dir> \
//	    --workload upload-churn|solve-churn|sim-online --seed 1 --seconds 30 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload hands back to main: the counts behind the
// result line, the metrics, and log-only figures (tails, metadata) that are
// printed but not gated.
type outcome struct {
	attempted int
	failed    int
	failures  map[string]int // failure reason → count
	metrics   map[string]metric
	log       map[string]any
}

func newOutcome() *outcome {
	return &outcome{
		failures: make(map[string]int),
		metrics:  make(map[string]metric),
		log:      make(map[string]any),
	}
}

func (o *outcome) set(name string, v float64, unit string) { o.metrics[name] = metric{v, unit} }

func (o *outcome) fail(reason string) {
	o.attempted++
	o.failed++
	o.failures[reason]++
}

// add folds a batch of attempted operations and its failures (reason →
// count) into the outcome.
func (o *outcome) add(attempted int, failures map[string]int) {
	o.attempted += attempted
	for k, v := range failures {
		o.failed += v
		o.failures[k] += v
	}
}

// runConfig carries the command-line inputs every workload needs.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// upload selects the socket path's flavour: every session uploads its
	// description (upload-churn), or the tables come from a ConfigDir.
	upload bool
	dir    string // per-run scratch directory, relative to the checkout root
}

var workloads = []string{"upload-churn", "solve-churn", "sim-online"}

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		work     = fs.String("work", ".bench_build", "scratch directory for run files (removed afterwards)")
		wl       = fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
		seed     = fs.Int64("seed", 1, "workload seed: picks each session's application and the simulator's noise")
		seconds  = fs.Float64("seconds", 30, "measured wall-clock seconds")
		traceArg = fs.Int("trace", 0, "1 = traced run with per-layer metrics, 0 = end-to-end metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if !contains(workloads, *wl) {
		return 2, fmt.Errorf("unknown workload %q (want one of %s)", *wl, strings.Join(workloads, ", "))
	}
	if *seconds <= 0 || (*traceArg != 0 && *traceArg != 1) {
		return 2, errors.New("-seconds must be positive and -trace 0 or 1")
	}
	workAbs, err := filepath.Abs(*work)
	if err != nil {
		return 2, err
	}
	runDir := filepath.Join(workAbs, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return 2, err
	}
	defer os.RemoveAll(runDir)
	// Unix socket paths are limited to ~108 bytes, so the run uses paths
	// relative to the working directory (the checkout root under run.sh).
	wd, err := os.Getwd()
	if err != nil {
		return 2, err
	}
	rel, err := filepath.Rel(wd, runDir)
	if err != nil {
		return 2, err
	}
	cfg := runConfig{
		workload: *wl,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *traceArg == 1,
		upload:   *wl == "upload-churn",
		dir:      rel,
	}

	meta := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      *traceArg,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
	}

	ref0 := hostRef()
	steal0, total0 := hostCPU()
	out, err := runWorkload(cfg, meta)
	if err != nil {
		return 2, err
	}
	out.log["host_ref_mops"] = []float64{ref0, hostRef()}
	if steal1, total1 := hostCPU(); total1 > total0 {
		out.log["host_steal_frac"] = float64(steal1-steal0) / float64(total1-total0)
	}
	if !cfg.trace {
		okFrac := float64(out.attempted-out.failed) / float64(max(out.attempted, 1))
		out.set("ok_frac", okFrac, "frac")
	}
	printLine("meta", meta)
	printLine("log", out.log)
	if out.failed > 0 {
		printLine("failures", out.failures)
	}
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 2, err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1, fmt.Errorf("%d of %d operations failed", out.failed, out.attempted)
	}
	return 0, nil
}

// printLine writes one labelled JSON log line (never the last line).
func printLine(label string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Printf("%s %s\n", label, b)
}

func contains(xs []string, x string) bool {
	for _, s := range xs {
		if s == x {
			return true
		}
	}
	return false
}

// cpuModel reports the host CPU model for the run metadata.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// refSink keeps hostRef's loop from being optimised away.
var refSink uint64

// hostRef times a fixed integer loop and returns millions of steps per
// second, logged before and after each run as a rough reading of the host's
// CPU speed.
func hostRef() float64 {
	const steps = 20_000_000
	x := uint64(88172645463325252)
	t0 := time.Now()
	for i := 0; i < steps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	d := time.Since(t0)
	refSink += x
	return steps / d.Seconds() / 1e6
}

// hostCPU reads the machine's steal time and total CPU time, in clock
// ticks, from /proc/stat: on a virtual machine, steal is time the
// hypervisor gave to other guests, logged as a witness of host load.
func hostCPU() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i == 7 {
			steal = n
		}
		if i < 8 { // guest time is already counted in user time
			total += n
		}
	}
	return steal, total
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile returns the q-quantile (nearest rank) of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// latencySummary sorts xs (milliseconds) and returns p50, p95 and the
// log-only tail: p99, maximum and sample count.
func latencySummary(xs []float64) (p50, p95 float64, tail map[string]float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	tail = map[string]float64{"p99_ms": quantile(s, 0.99), "n": float64(len(s))}
	if len(s) > 0 {
		tail["max_ms"] = s[len(s)-1]
	}
	return quantile(s, 0.50), quantile(s, 0.95), tail
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
