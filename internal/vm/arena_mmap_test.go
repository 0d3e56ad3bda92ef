//go:build linux && !race

package vm

import (
	"bufio"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"testing"
)

// TestArenaReservationRefused runs New in a child process whose
// address space is capped (RLIMIT_AS) below the arena: the refused
// reservation must fail New at once with a message naming it, as an
// oversized initial elder range does, never later as a fault.
func TestArenaReservationRefused(t *testing.T) {
	if os.Getenv("VM_TEST_ARENA_CHILD") == "1" {
		vsz := vmSize(t)
		lim := syscall.Rlimit{Cur: vsz + 256<<20, Max: vsz + 256<<20}
		if err := syscall.Setrlimit(syscall.RLIMIT_AS, &lim); err != nil {
			t.Fatal(err)
		}
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "cannot reserve a 2048 MiB arena") {
				t.Fatalf("New panicked with %q", msg)
			}
		}()
		New(Config{Heap: HeapConfig{ArenaMax: 2 << 30}})
		t.Fatal("New returned with its arena refused")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestArenaReservationRefused$")
	cmd.Env = append(os.Environ(), "VM_TEST_ARENA_CHILD=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
}

// vmSize reads this process's virtual size in bytes.
func vmSize(t *testing.T) uint64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		t.Skip(err)
	}
	defer f.Close()
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if kb, ok := strings.CutPrefix(sc.Text(), "VmSize:"); ok {
			n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(kb), " kB"), 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n << 10
		}
	}
	t.Skip("no VmSize")
	return 0
}
