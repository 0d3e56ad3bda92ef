package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"motor"
)

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		pct  float64
	}{
		{5000, 99, 99}, // 50 beyond p99
		{1000, 99, 99}, // exactly 10 beyond
		{999, 99, 95},  // 9.99 beyond p99: step down
		{200, 99, 95},
		{199, 99, 90},
		{100, 99, 90},
		{99, 99, 75},
		{40, 99, 75},
		{39, 99, 50},
		{5000, 95, 95}, // never above what the workload asks for
		{150, 95, 90},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n, c.want); got != c.pct {
			t.Errorf("tailPercentile(%d, %g) = %g, want %g", c.n, c.want, got, c.pct)
		}
	}
}

func TestSummarize(t *testing.T) {
	samples := make([]float64, 2000)
	for i := range samples {
		samples[i] = float64(2000 - i) // unsorted input
	}
	s := summarize(samples, 99)
	if s.N != 2000 || s.TailPct != 99 {
		t.Fatalf("n=%d tail pct %g", s.N, s.TailPct)
	}
	if math.Abs(s.P50-1000.5) > 1e-9 || math.Abs(s.Mean-1000.5) > 1e-9 {
		t.Errorf("p50 %g mean %g, want 1000.5", s.P50, s.Mean)
	}
	if s.Tail < 1980 || s.Tail > 1981 {
		t.Errorf("p99 of 1..2000 = %g", s.Tail)
	}
	if got := summarize(nil, 99); got.N != 0 {
		t.Errorf("empty summary %+v", got)
	}
}

func TestBlockMedianRate(t *testing.T) {
	// Four steady blocks and one that stalled: the mean rate would be
	// 5000/14 = 357/s, the block median stays at 1000/s.
	blocks := []block{{1000, 1}, {1000, 1}, {1000, 10}, {1000, 1}, {1000, 1}}
	if got := blockMedianRate(blocks); got != 1000 {
		t.Errorf("block median rate %g, want 1000", got)
	}
	if got := blockMedianRate(nil); got != 0 {
		t.Errorf("no blocks: %g", got)
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{name: "op_p50_us", bound: 0.10}
	higher := metricSpec{name: "ops_per_s", higher: true, bound: 0.10}
	tight := []float64{99, 100, 100, 100, 101}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[i] * f
		}
		return out
	}
	cases := []struct {
		name     string
		spec     metricSpec
		old, new []float64
		want     string
	}{
		{"same", lower, tight, tight, verdictWithin},
		{"5% slower is inside a 10% bound", lower, tight, scale(tight, 1.05), verdictWithin},
		{"20% slower", lower, tight, scale(tight, 1.2), verdictWorse},
		{"20% faster", lower, tight, scale(tight, 0.8), verdictBetter},
		{"throughput down 20%", higher, tight, scale(tight, 0.8), verdictWorse},
		{"throughput up 20%", higher, tight, scale(tight, 1.2), verdictBetter},
		// The old side's own quartiles are 30% apart: a 20% change
		// cannot be told from its noise, in either direction.
		{"noisy base, slower", lower, []float64{80, 85, 100, 115, 120}, scale(tight, 1.2), verdictUnresolved},
		{"noisy base, faster", lower, []float64{80, 85, 100, 115, 120}, scale(tight, 0.8), verdictUnresolved},
	}
	for _, c := range cases {
		if _, _, _, got := judge(c.spec, c.old, c.new); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareReports(t *testing.T) {
	mk := func(p50 float64) *report {
		r := workloadResult{Workload: "pp-small"}
		for i := 0; i < repeats; i++ {
			r.Children = append(r.Children, childStats{SetupS: 0.3, Op: summary{P50: p50, Tail: 10 * p50, Mean: p50}, OpsPerS: 1e6 / p50, PeakRSSMiB: 40})
		}
		return &report{Workloads: []workloadResult{r, {Workload: "pp-small", Traced: true}}}
	}
	rows, err := compareReports(mk(4), mk(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(endToEnd) {
		t.Fatalf("%d rows, want one per end-to-end metric (%d)", len(rows), len(endToEnd))
	}
	verdicts := map[string]string{}
	for _, c := range rows {
		verdicts[c.metric] = c.verdict
	}
	for metric, want := range map[string]string{
		"op_p50_us": verdictWorse, "ops_per_s": verdictWorse, "wall_s": verdictWorse,
		"setup_s": verdictWithin, "peak_rss_mb": verdictWithin,
	} {
		if verdicts[metric] != want {
			t.Errorf("%s: %q, want %q", metric, verdicts[metric], want)
		}
	}
	if _, err := compareReports(mk(4), &report{}); err == nil {
		t.Error("a workload missing from the new report must be an error")
	}
}

// TestLadderReport feeds the ladder fabricated rounds: one in which
// the rungs order and add up, one in which they do not order.
func TestLadderReport(t *testing.T) {
	rounds := 40
	build := func(f func(rung, round int) float64) *ladder {
		l := &ladder{samples: make([][]float64, len(rungNames))}
		for rung := range l.samples {
			for round := 0; round < rounds; round++ {
				l.samples[rung] = append(l.samples[rung], f(rung, round))
			}
		}
		return l
	}
	// Every rung adds 100 ns; the whole round drifts up and down
	// together, which the pairing cancels.
	good := build(func(rung, round int) float64 { return 1000 + 100*float64(rung) + 30*float64(round%5) })
	layers := map[string]float64{}
	good.report(layers)
	if layers["ladder.resolved"] != 1 {
		t.Errorf("consistent ladder reported unresolved: %v", layers)
	}
	for _, name := range []string{"adi.self_ns", "mp.self_ns", "core.self_ns", "vm.fcall_self_ns"} {
		if math.Abs(layers[name]-100) > 1e-9 {
			t.Errorf("%s = %g, want 100", name, layers[name])
		}
	}
	if math.Abs(layers["motor.over_native_ns"]-200) > 1e-9 {
		t.Errorf("motor.over_native_ns = %g, want 200 (core + vm rungs)", layers["motor.over_native_ns"])
	}
	// The core rung comes out far below the mp rung it is built on, by
	// much more than any rung's spread: the rungs do not order.
	bad := build(func(rung, round int) float64 {
		v := 1000 + 100*float64(rung) + 30*float64(round%5)
		if rung == 3 {
			v -= 700
		}
		return v
	})
	layers = map[string]float64{}
	bad.report(layers)
	if layers["ladder.resolved"] != 0 {
		t.Errorf("inconsistent ladder reported resolved: %v", layers)
	}
}

// TestSmoke drives every workload through the smoke protocol: set-up,
// warm-up, two timed blocks with the per-op and per-block correctness
// checks, the exit checks (no outstanding request, pins balanced), and
// then the whole traced run with its ladder, probes and span file.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("keeps two CPUs busy for a second")
	}
	dir := t.TempDir()
	old := outDir
	outDir = dir
	defer func() { outDir = old }()
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			sz := sizes{seed: 7, smoke: true}
			res, err := runWorkload(w, sz, runOpts{seconds: 0.01})
			if err != nil {
				t.Fatal(err)
			}
			if res.Attempted == 0 || res.Failed != 0 || len(res.Errors) != 0 {
				t.Fatalf("attempted %d, failed %d, errors %v", res.Attempted, res.Failed, res.Errors)
			}
			if len(res.Blocks) < 2 || len(res.OpUs) == 0 {
				t.Fatalf("%d blocks, %d samples", len(res.Blocks), len(res.OpUs))
			}

			out := &childOut{}
			if err := tracedRun(w, sz, 0.05, out); err != nil {
				t.Fatal(err)
			}
			if out.Failed != 0 || len(out.Errors) != 0 {
				t.Fatalf("traced run: failed %d, errors %v", out.Failed, out.Errors)
			}
			for _, name := range layerMetricNames() {
				if _, ok := out.Layers[name]; !ok {
					t.Errorf("traced run did not report %s", name)
				}
			}
			if len(out.Layers) != len(layerUnits) {
				t.Errorf("traced run reported %d metrics, the table has %d", len(out.Layers), len(layerUnits))
			}
			if out.Layers["ladder.top_ns"] <= 0 || out.Layers["channel.rt_ns"] <= 0 || out.Layers["channel.sock_rt_ns"] <= 0 {
				t.Errorf("ladder did not run: %v", out.Layers)
			}
			var spans []span
			data, err := os.ReadFile(filepath.Join(dir, w.name+".trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
				t.Fatalf("span file: %d spans, %v", len(spans), err)
			}
			for _, s := range spans {
				if s.End < s.Start || s.Parent >= len(spans) {
					t.Fatalf("bad span %+v", s)
				}
			}
		})
	}
}

// TestChecksCatchDamage makes sure the correctness checks can fail: a
// reference or an expected checksum that is off by a little must be
// reported, not waved through.
func TestChecksCatchDamage(t *testing.T) {
	sz := sizes{seed: 3, smoke: true}
	t.Run("heat2d", func(t *testing.T) {
		w, _ := findWorkload("heat2d")
		damaged := *w
		damaged.new = func(w *workload, sz sizes) program {
			h := newHeat2D(w, sz).(*heat2d)
			return &wrongReference{h}
		}
		res, err := runWorkload(&damaged, sz, runOpts{seconds: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Errors) == 0 || !strings.Contains(res.Errors[0], "reference") {
			t.Errorf("a reference that is off by 1e-6 went unnoticed: %v", res.Errors)
		}
	})
	t.Run("otree", func(t *testing.T) {
		w, _ := findWorkload("otree")
		damaged := *w
		damaged.new = func(w *workload, sz sizes) program {
			o := newOTree(w, sz).(*otree)
			return &wrongBytes{o}
		}
		res, err := runWorkload(&damaged, sz, runOpts{seconds: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Errors) == 0 || !strings.Contains(res.Errors[0], "checksum") {
			t.Errorf("a payload byte that differs went unnoticed: %v", res.Errors)
		}
	})
}

// wrongReference is heat2d with a reference that is slightly off.
type wrongReference struct{ *heat2d }

func (w *wrongReference) setup(r *motor.Rank) error {
	if err := w.heat2d.setup(r); err != nil {
		return err
	}
	for i := range w.ref {
		w.ref[i].band[0] *= 1 + 1e-6
		w.ref[i].band[1] *= 1 + 1e-6
	}
	return nil
}

// wrongBytes is otree expecting one payload byte the list does not hold.
type wrongBytes struct{ *otree }

func (w *wrongBytes) setup(r *motor.Rank) error {
	if err := w.otree.setup(r); err != nil {
		return err
	}
	w.bytes[len(w.bytes)/2]++
	return nil
}

func TestGCLiveBytes(t *testing.T) {
	for _, c := range []struct {
		llc, live int64
		clamped   bool
	}{
		{0, gcLiveMin, false},
		{8 << 20, 32 << 20, false},
		{16 << 20, 64 << 20, false},
		{260 << 20, gcLiveMax, true},
	} {
		if live, clamped := gcLiveBytes(c.llc); live != c.live || clamped != c.clamped {
			t.Errorf("gcLiveBytes(%d) = %d, %v; want %d, %v", c.llc, live, clamped, c.live, c.clamped)
		}
	}
}

func TestCleanEnv(t *testing.T) {
	t.Setenv("MOTOR_PROGRESS", "1")
	t.Setenv("MOTOR_SOME_LATER_KNOB", "1")
	t.Setenv("MOTORBENCH_KEEP", "1")
	kept := false
	for _, kv := range cleanEnv() {
		name, _, _ := strings.Cut(kv, "=")
		if strings.HasPrefix(name, "MOTOR_") {
			t.Errorf("%s survived", name)
		}
		kept = kept || name == "MOTORBENCH_KEEP"
	}
	if !kept {
		t.Error("cleanEnv dropped an unrelated variable")
	}
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in this package")

// manifest is BENCHMARK.json: what the driver of the stacked PRs reads.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestEntry  `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func better(higher bool) string {
	if higher {
		return "higher"
	}
	return "lower"
}

// wantManifest builds BENCHMARK.json from the package's tables.
func wantManifest() manifest {
	m := manifest{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: 10}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestEntry{w.name, w.why})
	}
	for _, spec := range endToEnd {
		bound := spec.bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{spec.name, spec.unit, better(spec.higher), &bound})
	}
	for _, name := range layerMetricNames() {
		m.PerLayer = append(m.PerLayer, manifestMetric{name, layerUnits[name], better(layerHigherBetter[name]), nil})
	}
	return m
}

// TestBenchmarkJSON keeps BENCHMARK.json at the repo root and the
// tables in this package equal (go test ./benchmark -run BenchmarkJSON
// -update rewrites the file).
func TestBenchmarkJSON(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	want, err := json.MarshalIndent(wantManifest(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("BENCHMARK.json differs from the package's tables; rerun with -update. Want:\n%s", want)
	}
	for _, w := range workloads {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	for name := range layerHigherBetter {
		if _, ok := layerUnits[name]; !ok {
			t.Errorf("layerHigherBetter names %s, which is not a per-layer metric", name)
		}
	}
}
