package bench

import (
	"strings"
	"sync/atomic"
	"testing"

	"motor/internal/baseline/pinvoke"
	"motor/internal/mp"
	"motor/internal/serial"
)

func TestFig9QuickAllImpls(t *testing.T) {
	sizes := []int{4, 256, 4096}
	series, err := Fig9(Quick(), sizes)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 5 {
		t.Fatalf("%d series", len(series))
	}
	for _, s := range series {
		if len(s.Points) != len(sizes) {
			t.Errorf("%s: %d points", s.Impl, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Err != "" {
				t.Errorf("%s@%d: %s", s.Impl, p.X, p.Err)
			}
			if p.Us <= 0 {
				t.Errorf("%s@%d: non-positive time %f", s.Impl, p.X, p.Us)
			}
		}
	}
	table := FormatTable("Figure 9", "bytes", series)
	for _, want := range []string{"C++", "Motor", "Indiana SSCLI", "Indiana .NET", "Java", "4096"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

func TestFig10QuickAllImpls(t *testing.T) {
	counts := []int{2, 16, 64}
	series, err := Fig10(Quick(), counts)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("%d series", len(series))
	}
	for _, s := range series {
		if len(s.Points) != len(counts) {
			t.Errorf("%s: %d points", s.Impl, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Err != "" {
				t.Errorf("%s@%d: %s", s.Impl, p.X, p.Err)
			}
		}
	}
}

func TestFig10JavaStopsAtStackOverflow(t *testing.T) {
	// The mpiJava series must end with a FAIL point once the element
	// count exceeds the recursive serializer's depth (paper: stops
	// after 1024 total objects).
	counts := []int{1024, 2048, 4096}
	s, err := RunObj(JavaObjImpl(), Quick(), counts)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 2 {
		t.Fatalf("points: %+v", s.Points)
	}
	if s.Points[0].Err != "" {
		t.Errorf("1024 objects should succeed: %s", s.Points[0].Err)
	}
	if s.Points[1].X != 2048 || s.Points[1].Err == "" {
		t.Errorf("2048 objects should fail with stack overflow: %+v", s.Points[1])
	}
	if !strings.Contains(s.Points[1].Err, "stack overflow") {
		t.Errorf("failure reason %q", s.Points[1].Err)
	}
}

func TestFig9StatsComputation(t *testing.T) {
	series := []Series{
		{Impl: "Motor", Points: []Point{{X: 1024, Us: 90}, {X: 131072, Us: 950}}},
		{Impl: "Indiana SSCLI", Points: []Point{{X: 1024, Us: 100}, {X: 131072, Us: 1000}}},
	}
	st := ComputeFig9Stats(series)
	if !st.CrossChecked {
		t.Fatal("not cross-checked")
	}
	if st.PeakPct < 9.9 || st.PeakPct > 10.1 {
		t.Errorf("peak %.2f", st.PeakPct)
	}
	if st.MeanPct < 7.4 || st.MeanPct > 7.6 {
		t.Errorf("mean %.2f", st.MeanPct)
	}
	if st.MeanBigPct < 4.9 || st.MeanBigPct > 5.1 {
		t.Errorf("mean big %.2f", st.MeanBigPct)
	}
}

func TestAblationsQuick(t *testing.T) {
	a1, err := AblationPinPolicy(Quick(), []int{256})
	if err != nil {
		t.Fatal(err)
	}
	if len(a1) != 2 || a1[0].Impl == a1[1].Impl {
		t.Errorf("A1 series: %+v", a1)
	}
	a2, err := AblationVisited(Quick(), []int{32})
	if err != nil {
		t.Fatal(err)
	}
	if len(a2) != 2 {
		t.Errorf("A2 series: %+v", a2)
	}
}

// RunPing, RunPingN and ablation A5 are one-implementation calls of
// RunPingSet: they must report the same (impl, size) point a
// one-element set does, hand proto.EagerMax to the world, and A5's
// per-threshold series names must survive.
func TestSinglePingIsOneElementSet(t *testing.T) {
	const size = 256
	us, err := RunPingN(NativeImpl(), size, 10)
	if err != nil {
		t.Fatal(err)
	}
	if us <= 0 {
		t.Errorf("RunPingN: non-positive time %f", us)
	}

	var eagerMax atomic.Int64
	probe := NativeImpl()
	newNative := probe.New
	probe.New = func(w *mp.World) (pingRank, error) {
		eagerMax.Store(int64(w.Comm.EagerMax()))
		return newNative(w)
	}
	proto := Quick()
	proto.EagerMax = 1 << 10
	set, err := RunPingSet([]PingImpl{probe}, proto, []int{size})
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 1 {
		t.Fatalf("one-element set: %+v", set)
	}
	if got := eagerMax.Swap(0); got != 1<<10 {
		t.Errorf("RunPingSet built its world with EagerMax %d, want %d", got, 1<<10)
	}
	one, err := RunPing(probe, proto, []int{size})
	if err != nil {
		t.Fatal(err)
	}
	if got := eagerMax.Load(); got != 1<<10 {
		t.Errorf("RunPing built its world with EagerMax %d, want %d", got, 1<<10)
	}
	for _, s := range []Series{set[0], one} {
		if s.Impl != probe.Name || len(s.Points) != 1 || s.Points[0].X != size || s.Points[0].Us <= 0 {
			t.Errorf("series: %+v", s)
		}
	}

	a5, err := AblationEagerThreshold(Quick(), []int{size}, []int{1 << 10, 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(a5) != 2 || a5[0].Impl != "eager<=1KiB" || a5[1].Impl != "eager<=8KiB" {
		t.Fatalf("A5 series: %+v", a5)
	}
	for _, s := range a5 {
		if len(s.Points) != 1 || s.Points[0].X != size || s.Points[0].Us <= 0 {
			t.Errorf("A5 %s: %+v", s.Impl, s.Points)
		}
	}
}

func TestIndianaProfilesBothRun(t *testing.T) {
	for _, host := range []pinvoke.Host{pinvoke.HostSSCLI, pinvoke.HostNET} {
		s, err := RunObj(IndianaObjImpl(host), Quick(), []int{128})
		if err != nil {
			t.Fatalf("%v: %v", host, err)
		}
		if len(s.Points) != 1 || s.Points[0].Err != "" {
			t.Errorf("%v: %+v", host, s.Points)
		}
	}
}

func TestVisitedMapMatchesLinearResults(t *testing.T) {
	// Correctness: both visited modes must transport identical
	// structures (A2 is a performance-only difference).
	for _, mode := range []serial.VisitedMode{serial.VisitedLinear, serial.VisitedMap} {
		s, err := RunObj(MotorOOImpl(mode), Quick(), []int{64})
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if s.Points[0].Err != "" {
			t.Errorf("mode %d: %s", mode, s.Points[0].Err)
		}
	}
}

func TestPolicyBehaviourCounters(t *testing.T) {
	rows, err := RunPolicyBehaviour(80, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	motor, always := rows[0], rows[1]
	// The paper's policy must register conditional requests for the
	// outstanding non-blocking receives and never pin eagerly.
	if motor.CondPins == 0 {
		t.Errorf("Motor policy registered no conditional pins: %+v", motor)
	}
	if motor.PinEager != 0 {
		t.Errorf("Motor policy pinned eagerly: %+v", motor)
	}
	// The wrapper discipline pins every operation and never uses
	// conditional requests.
	if always.PinEager == 0 {
		t.Errorf("always-pin took no eager pins: %+v", always)
	}
	if always.CondPins != 0 {
		t.Errorf("always-pin registered conditional pins: %+v", always)
	}
	// Under churn, collections ran and some conditional requests were
	// held across a mark phase (the object was in flight) or dropped
	// (complete).
	if motor.Scavenges == 0 {
		t.Error("no collections; workload too light")
	}
	out := FormatPolicyBehaviour(rows)
	if !strings.Contains(out, "Motor") || !strings.Contains(out, "always-pin") {
		t.Errorf("table:\n%s", out)
	}
}

func TestVerifyOrdering(t *testing.T) {
	good := []Series{
		{Impl: "C++", Points: []Point{{X: 128, Us: 1}, {X: 4096, Us: 4}}},
		{Impl: "Motor", Points: []Point{{X: 128, Us: 1.05}, {X: 4096, Us: 4.2}}},
		{Impl: "Java", Points: []Point{{X: 128, Us: 1.5}, {X: 4096, Us: 6}}},
	}
	if v := VerifyOrdering(good, 64); v != "" {
		t.Errorf("good ordering flagged: %s", v)
	}
	bad := []Series{
		{Impl: "C++", Points: []Point{{X: 4096, Us: 9}}},
		{Impl: "Motor", Points: []Point{{X: 4096, Us: 4}}},
		{Impl: "Java", Points: []Point{{X: 4096, Us: 2}}},
	}
	v := VerifyOrdering(bad, 64)
	if !strings.Contains(v, "C++") || !strings.Contains(v, "Java") {
		t.Errorf("violations not reported: %q", v)
	}
	if v := VerifyOrdering(nil, 64); v != "missing series" {
		t.Errorf("missing series: %q", v)
	}
}
