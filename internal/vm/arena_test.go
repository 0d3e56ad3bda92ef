package vm

import (
	"fmt"
	"os"
	"runtime"
	"testing"
)

// TestMain fails the package if a test left a VM's arena reserved.
func TestMain(m *testing.M) {
	code := m.Run()
	if n := LiveArenas(); code == 0 && n != 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d VM arenas still reserved at exit\n", n)
		code = 1
	}
	os.Exit(code)
}

// TestArenaNeverMoves grows a heap to more than eight times its
// initial arena through allocations. The arena is reserved once, so
// an early object's bytes keep their address and the growth allocates
// (almost) nothing in Go: a copying arena would copy every doubling.
func TestArenaNeverMoves(t *testing.T) {
	v := New(Config{Heap: HeapConfig{YoungSize: 1 << 20, InitialElder: 4 << 20, ArenaMax: 256 << 20,
		FullGCThreshold: 1 << 31}})
	live := LiveArenas()
	i32 := v.ArrayType(KindInt32, nil, 1)
	early, err := v.Heap.AllocArray(i32, 64)
	if err != nil {
		t.Fatal(err)
	}
	v.Heap.Pin(early)
	at := &v.Heap.DataBytes(early)[0]
	initial, _, _ := v.Heap.MemUse()
	refs := make([]Ref, 0, 128) // big arrays go straight to the elder space
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	for arena := initial; arena < 8*initial; arena, _, _ = v.Heap.MemUse() {
		ref, err := v.Heap.AllocArray(i32, 256<<10)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
		if p := &v.Heap.DataBytes(early)[0]; p != at {
			t.Fatalf("arena at %d MiB: the early object's bytes moved from %p to %p", arena>>20, at, p)
		}
	}
	runtime.ReadMemStats(&ms)
	if grew := ms.TotalAlloc - before; grew >= 1<<20 {
		t.Errorf("growing the arena %d -> %d MiB allocated %d KiB in Go", initial>>20, 8*initial>>20, grew>>10)
	}
	if st := v.Heap.Stats.Snapshot(); st.Scavenges+st.FullGCs != 0 {
		t.Errorf("%d collections ran: the growth was not by allocation alone", st.Scavenges+st.FullGCs)
	}
	v.Close()
	v.Close()
	if got := LiveArenas(); got != live-1 {
		t.Errorf("live arenas %d after two Closes, want %d", got, live-1)
	}
}
