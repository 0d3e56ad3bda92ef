package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// waitForStall receives stalls until one matches lane (other tests may
// leave unrelated lanes mid-wait) or the deadline passes.
func waitForStall(t *testing.T, ch <-chan Stall, lane int) Stall {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case s := <-ch:
			if s.Lane == lane {
				return s
			}
		case <-deadline:
			t.Fatalf("watchdog did not report lane %d", lane)
		}
	}
}

func TestWatchdogFiresOnStall(t *testing.T) {
	const lane = 9
	unreg := RegisterStallDiag(lane, func() string { return "testdiag: lane nine stuck" })
	defer unreg()

	ch := make(chan Stall, 16)
	w := StartWatchdog(WatchdogConfig{
		Deadline: 30 * time.Millisecond,
		Poll:     10 * time.Millisecond,
		OnStall:  func(s Stall) { ch <- s },
	})
	defer w.Stop()

	BeatEnter(lane, OpRecv, 3)
	defer BeatExit(lane)
	BeatPulse(lane)
	BeatPulse(lane)

	s := waitForStall(t, ch, lane)
	if s.Op != OpRecv || s.Peer != 3 {
		t.Fatalf("stall = %+v, want op=Recv peer=3", s)
	}
	if s.Waited < 30*time.Millisecond {
		t.Fatalf("stall waited %v < deadline", s.Waited)
	}
	if s.Pulses != 2 {
		t.Fatalf("stall pulses = %d, want 2", s.Pulses)
	}
	var haveDiag, haveGC bool
	for _, d := range s.Diag {
		haveDiag = haveDiag || strings.Contains(d, "testdiag")
		haveGC = haveGC || strings.Contains(d, "last GC")
	}
	if !haveDiag || !haveGC {
		t.Fatalf("diagnosis missing provider or GC line: %v", s.Diag)
	}

	// One report per wait: the same open wait must not fire again.
	select {
	case s2 := <-ch:
		if s2.Lane == lane {
			t.Fatalf("duplicate stall report: %+v", s2)
		}
	case <-time.After(100 * time.Millisecond):
	}

	// A resolved-and-reentered wait re-arms the watchdog.
	BeatExit(lane)
	BeatEnter(lane, OpAllreduce, -1)
	s3 := waitForStall(t, ch, lane)
	if s3.Op != OpAllreduce || s3.Peer != -1 {
		t.Fatalf("re-armed stall = %+v, want op=Allreduce peer=-1", s3)
	}

	var buf bytes.Buffer
	WriteStall(&buf, s)
	if !strings.Contains(buf.String(), "stuck in Recv") ||
		!strings.Contains(buf.String(), "testdiag") {
		t.Fatalf("WriteStall rendering:\n%s", buf.String())
	}
}

func TestBeatNestingKeepsOutermost(t *testing.T) {
	const lane = 12
	BeatEnter(lane, OpAllreduce, -1)
	BeatEnter(lane, OpDevWait, 5)
	b := beatOf(lane)
	if OpCode(b.op.Load()) != OpAllreduce {
		t.Fatalf("nested wait overwrote outermost op: %d", b.op.Load())
	}
	if b.depth.Load() != 2 {
		t.Fatalf("depth = %d, want 2", b.depth.Load())
	}
	BeatExit(lane)
	if b.start.Load() == 0 {
		t.Fatal("inner exit cleared the outer wait")
	}
	BeatExit(lane)
	if b.start.Load() != 0 || b.depth.Load() != 0 {
		t.Fatalf("wait not fully closed: start=%d depth=%d", b.start.Load(), b.depth.Load())
	}
}

func TestWaiting(t *testing.T) {
	const lane = 11
	if _, ok := Waiting()[lane]; ok {
		t.Fatalf("lane %d already waiting before test", lane)
	}
	BeatEnter(lane, OpBarrier, -1)
	if _, ok := Waiting()[lane]; !ok {
		t.Fatalf("lane %d not in Waiting() during wait", lane)
	}
	BeatExit(lane)
	if _, ok := Waiting()[lane]; ok {
		t.Fatalf("lane %d still in Waiting() after exit", lane)
	}
}

func TestNoteGCAppearsInDiagnosis(t *testing.T) {
	NoteGC(GCFull, int64(2*time.Millisecond))
	var found bool
	for _, d := range diagnose(200) { // lane with no providers
		if strings.Contains(d, "last GC: full") {
			found = true
		}
	}
	if !found {
		t.Fatal("diagnosis lacks GC attribution after NoteGC")
	}
}

// TestBeatSlotLayout: no two lanes' heartbeat fields share a 64-byte
// cache line, in the beats array as linked and at any alignment.
func TestBeatSlotLayout(t *testing.T) {
	var s beatSlot
	fields := unsafe.Offsetof(s.peer) + unsafe.Sizeof(s.peer)
	if n := unsafe.Sizeof(s); n < fields+64 {
		t.Fatalf("beatSlot is %d bytes with %d of fields; an unaligned array can put two lanes on one line", n, fields)
	}
	line := func(p unsafe.Pointer, off uintptr) uintptr { return (uintptr(p) + off) / 64 }
	for lane := 0; lane+1 < maxLanes; lane++ {
		last := line(unsafe.Pointer(&beats[lane]), fields-1)
		first := line(unsafe.Pointer(&beats[lane+1]), 0)
		if last >= first {
			t.Fatalf("lanes %d and %d share cache line %#x", lane, lane+1, first*64)
		}
	}
}
