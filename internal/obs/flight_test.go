package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// TestFlightDisplacement checks the tracer-swap protocol: a full
// session displaces the flight recorder for its duration and Stop
// restores it.
func TestFlightDisplacement(t *testing.T) {
	if Active() != nil {
		t.Fatal("tracer already active at test start")
	}
	f := StartFlight("")
	if f == nil || Active() != f || !f.Flight() {
		t.Fatal("StartFlight did not publish a flight recorder")
	}
	if StartFlight("") != nil {
		t.Fatal("second StartFlight should refuse while one is active")
	}
	full := Start(Options{Shards: 1})
	if full == nil || Active() != full || full.Flight() {
		t.Fatal("full session did not displace the flight recorder")
	}
	if Start(Options{Shards: 1}) != nil {
		t.Fatal("second full session should refuse")
	}
	Stop(full)
	if Active() != f {
		t.Fatal("Stop(full) did not restore the flight recorder")
	}
	Stop(f)
	if Active() != nil {
		t.Fatal("Stop(flight) left a tracer active")
	}
}

// TestCycleFlight checks duty-cycle arming: Active alternates between
// the recorder and nil, a displacing full session is never stomped,
// and retirement wins any race with a rearm.
func TestCycleFlight(t *testing.T) {
	if Active() != nil || FlightRecorder() != nil {
		t.Fatal("tracer already active at test start")
	}
	f := StartFlight("")
	if f == nil {
		t.Fatal("StartFlight refused")
	}
	stop := CycleFlight(f, 5*time.Millisecond, 25*time.Millisecond)

	waitState := func(want *Tracer, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for Active() != want {
			if time.Now().After(deadline) {
				t.Fatalf("cycle never reached %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitState(nil, "a disarmed gap")
	if FlightRecorder() != f {
		t.Fatal("disarmed recorder not reachable via FlightRecorder")
	}
	waitState(f, "a rearmed window")

	// A full session displaces the recorder wherever the cycle is; the
	// cycle must not stomp it.
	full := Start(Options{Shards: 1})
	if full == nil {
		t.Fatal("full session refused")
	}
	time.Sleep(60 * time.Millisecond) // several cycle ticks while displaced
	if Active() != full {
		t.Fatal("cycle stomped a displacing full session")
	}
	Stop(full)
	waitState(f, "rearm after the full session stopped")

	stop()
	stop() // idempotent
	Stop(f)
	if FlightRecorder() != nil {
		t.Fatal("retired recorder still reachable")
	}
	// A racing rearm may arm the retired recorder transiently; its
	// undo must settle back to nil.
	waitState(nil, "quiescence after retirement")
}

func TestFlightDump(t *testing.T) {
	if Active() != nil {
		t.Fatal("tracer already active at test start")
	}
	dir := t.TempDir()
	lastDumpNS.Store(0)
	flightDumps.Store(0)

	// No recorder: silent no-op.
	if path, err := FlightDump("nothing"); path != "" || err != nil {
		t.Fatalf("dump without recorder = %q, %v", path, err)
	}

	f := StartFlight(dir)
	// A handful of edges for the dump to carry.
	for i := 1; i <= 16; i++ {
		f.Instant(0, KEdge, uint64(EdgeSend), PackCorr(0, 1, uint32(i)), 0, 8)
	}
	path, err := FlightDump("test reason!")
	if err != nil || path == "" {
		t.Fatalf("FlightDump = %q, %v", path, err)
	}
	if filepath.Dir(path) != dir {
		t.Fatalf("dump %q is not in the recorder's directory %q", path, dir)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("dump is not a Chrome trace: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("dump has no events")
	}

	// Rate limit: an immediate second dump is suppressed.
	if p2, err := FlightDump("again"); p2 != "" || err != nil {
		t.Fatalf("rate-limited dump = %q, %v", p2, err)
	}

	// A full session owns its own data: no auto-dump while displaced.
	lastDumpNS.Store(0)
	full := Start(Options{Shards: 1})
	if p3, err := FlightDump("displaced"); p3 != "" || err != nil {
		t.Fatalf("dump while displaced = %q, %v", p3, err)
	}
	Stop(full)
	Stop(f)

	lastDumpNS.Store(0)
	flightDumps.Store(0)
}

// TestStartFlightRefusesWithoutBuilding: a StartFlight that another
// session refuses must not build (and drop) a recorder ring first. Both
// refusals are measured: a flight recorder already running, and a full
// session owning the process.
func TestStartFlightRefusesWithoutBuilding(t *testing.T) {
	if Active() != nil {
		t.Fatal("tracer already active at test start")
	}
	refusedAlloc := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if StartFlight("") != nil {
			t.Fatal("StartFlight did not refuse")
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	f := StartFlight("")
	if f == nil {
		t.Fatal("StartFlight refused on an idle process")
	}
	defer Stop(f)
	if n := refusedAlloc(); n >= 64<<10 {
		t.Errorf("StartFlight refused by a flight recorder allocated %d bytes", n)
	}
	full := Start(Options{Shards: 1})
	if full == nil {
		t.Fatal("full session did not start")
	}
	defer Stop(full)
	if n := refusedAlloc(); n >= 64<<10 {
		t.Errorf("StartFlight refused by a full session allocated %d bytes", n)
	}
}
