// Command benchmark is Motor's one benchmark: seven managed workloads
// measured end to end, and a traced run that attributes their time to
// the repo's layers. See README.md in this directory.
//
//	go run ./benchmark [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-out file]
//	go run ./benchmark compare old.json new.json
//	go run ./benchmark aa [-seed n] [-seconds s]
//
// Each workload runs in a child process of its own (this binary,
// re-executed with -child), so heap state and peak RSS do not leak
// between workloads, and with every MOTOR_* variable removed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// repeats is how many child processes one run of a workload is split
// over. Each sets the workload up and measures for a share of the
// run's seconds; every end-to-end metric is the median over the
// children, which takes out what differs from process to process
// (placement, heap layout) and would otherwise pass for a change.
const repeats = 5

// childDeadline bounds one child: a rank that failed leaves its peer
// waiting for a message that never comes.
const childDeadline = 150 * time.Second

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the last line of a single-workload run.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloadResult is one workload's entry in the JSON result.
type workloadResult struct {
	Workload  string            `json:"workload"`
	Why       string            `json:"why"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Children holds what each child process of an untraced run
	// measured; the metrics are the medians over them.
	Children []childStats   `json:"children,omitempty"`
	Info     map[string]any `json:"info,omitempty"`
}

// report is the JSON result of a run (-out).
type report struct {
	Host      hostInfo         `json:"host"`
	Protocol  protocolInfo     `json:"protocol"`
	Workloads []workloadResult `json:"workloads"`
}

type hostInfo struct {
	NumCPU     int    `json:"numcpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
	LLCBytes   int64  `json:"llc_bytes"`
	EnvCleared string `json:"env_cleared"`
}

type protocolInfo struct {
	Seed    int64   `json:"seed"`
	Seconds float64 `json:"seconds"`
	Repeats int     `json:"repeats"`
	Smoke   bool    `json:"smoke"`
}

// childStats is one child's view of an untraced run.
type childStats struct {
	SetupS     float64 `json:"setup_s"`
	Op         summary `json:"op_us"`
	Blocks     int     `json:"blocks"`
	OpsPerS    float64 `json:"ops_per_s"`
	PeakRSSMiB float64 `json:"peak_rss_mib"`
}

// gitCommit is set by run.sh at link time; `go run` leaves it empty and
// the toolchain's own VCS stamp is used instead.
var gitCommit string

func commit() string {
	if gitCommit != "" {
		return gitCommit
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	smoke    bool
	child    string
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all, untraced then traced)")
	fs.Int64Var(&o.seed, "seed", 1, "seed for the workload inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed section of a run")
	fs.IntVar(&o.trace, "trace", 0, "1: traced run, reports the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&o.out, "out", "", "write the JSON result to this file")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny counts: proves the plumbing, measures nothing")
	fs.StringVar(&o.child, "child", "", "internal: run one phase in this process (measure, trace)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.seconds <= 0 || o.trace < 0 || o.trace > 1 {
		return o, fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}
	return o, nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareMain(args[1:])
		case "aa":
			return aaMain(args[1:])
		}
	}
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	if o.child != "" {
		return childMain(o)
	}
	if err := requireCPUs(); err != nil {
		return err
	}
	traces := []int{o.trace}
	if o.workload == "" {
		traces = []int{0, 1}
	}
	rep, err := runSet(o, traces, false)
	if err != nil {
		return err
	}
	if o.out != "" {
		if err := writeJSON(o.out, rep); err != nil {
			return err
		}
	}
	var line any = rep
	if o.workload != "" {
		r := rep.Workloads[0]
		line = contractLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	for _, r := range rep.Workloads {
		if !r.Correct {
			return fmt.Errorf("%s: correctness checks failed: %v", r.Workload, r.Errors)
		}
	}
	return nil
}

// runSet runs the selected workload, or every workload, once per entry
// of traces (0 untraced, 1 traced), each run in children of its own.
// reverse flips the workload order (the A/A comparison alternates it).
func runSet(o options, traces []int, reverse bool) (*report, error) {
	rep := &report{
		Host: hostInfo{
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Commit: commit(), LLCBytes: lastLevelCacheBytes(), EnvCleared: motorEnvPrefix + "*",
		},
		Protocol: protocolInfo{Seed: o.seed, Seconds: o.seconds, Repeats: repeats, Smoke: o.smoke},
	}
	var names []string
	if o.workload != "" {
		if _, err := findWorkload(o.workload); err != nil {
			return nil, err
		}
		names = []string{o.workload}
	} else {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	if reverse {
		sort.Sort(sort.Reverse(sort.StringSlice(names)))
	}
	for _, trace := range traces {
		for _, name := range names {
			oo := o
			oo.workload, oo.trace = name, trace
			r, err := runOne(oo)
			if err != nil {
				return nil, err
			}
			printResult(r)
			rep.Workloads = append(rep.Workloads, *r)
		}
	}
	return rep, nil
}

// runOne runs one workload once, traced or not, in child processes.
func runOne(o options) (*workloadResult, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	res := &workloadResult{Workload: w.name, Why: w.why, Traced: o.trace == 1, Metrics: map[string]metric{}}
	if o.trace == 1 {
		out, _, err := spawn(o, "trace")
		if err != nil {
			return nil, err
		}
		res.fill(out)
		for _, name := range layerMetricNames() {
			res.Metrics[name] = metric{Value: out.Layers[name], Unit: layerUnits[name]}
		}
		return res, nil
	}
	share := o
	share.seconds = o.seconds / repeats
	for i := 0; i < repeats; i++ {
		out, setup, err := spawn(share, "measure")
		if err != nil {
			return nil, err
		}
		res.fill(out)
		res.Children = append(res.Children, childStats{
			SetupS: setup, Op: out.Op, Blocks: len(out.Blocks), OpsPerS: blockMedianRate(out.Blocks), PeakRSSMiB: out.PeakRSSMiB,
		})
	}
	for _, spec := range endToEnd {
		vals := make([]float64, len(res.Children))
		for i, c := range res.Children {
			vals[i] = spec.of(c, w)
		}
		res.Metrics[spec.name] = metric{Value: median(vals), Unit: spec.unit}
	}
	return res, nil
}

// fill adds one child's outcome to the result.
func (r *workloadResult) fill(out *childOut) {
	r.Attempted += out.Attempted
	r.Failed += out.Failed
	r.Errors = append(r.Errors, out.Errors...)
	r.Info = out.Info
	r.Correct = r.Failed == 0 && len(r.Errors) == 0 && r.Attempted > 0
}

// spawn runs one phase of a workload in a child process with the
// MOTOR_* variables removed, and returns what it printed and how long
// it took from process start to the first timed op.
func spawn(o options, phase string) (*childOut, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-child", phase, "-workload", o.workload, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds)}
	if o.smoke {
		args = append(args, "-smoke")
	}
	ctx, cancel := context.WithTimeout(context.Background(), childDeadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = cleanEnv()
	cmd.Stderr = os.Stderr
	start := time.Now()
	data, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("%s %s child: %w", o.workload, phase, err)
	}
	out := &childOut{}
	if err := json.Unmarshal(data, out); err != nil {
		return nil, 0, fmt.Errorf("%s %s child printed %q: %w", o.workload, phase, data, err)
	}
	return out, float64(out.ReadyUnixNs-start.UnixNano()) / 1e9, nil
}

func printResult(r *workloadResult) {
	kind := "end to end"
	if r.Traced {
		kind = "per layer"
	}
	fmt.Printf("%s (%s): %d ops attempted, %d failed\n", r.Workload, kind, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Printf("  %-28s %14.4f %s\n", name, m.Value, m.Unit)
	}
	for i, c := range r.Children {
		fmt.Printf("  child %d: %d samples in %d blocks; op quartiles %.3f / %.3f / %.3f us; tail is p%g; set-up %.3f s\n",
			i, c.Op.N, c.Blocks, c.Op.P25, c.Op.P50, c.Op.P75, c.Op.TailPct, c.SetupS)
	}
	for k, v := range r.Info {
		fmt.Printf("  %s: %v\n", k, v)
	}
	for _, e := range r.Errors {
		fmt.Printf("  ERROR %s\n", e)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
