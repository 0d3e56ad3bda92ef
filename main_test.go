package motor

import (
	"fmt"
	"os"
	"testing"
	"time"

	"motor/internal/vm"
)

// TestMain fails the package if a test left a VM's arena reserved.
func TestMain(m *testing.M) {
	code := m.Run()
	// Spawned children close their VMs on their own goroutines, which
	// may outlive the test that spawned them by a moment.
	for i := 0; i < 100 && vm.LiveArenas() != 0; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if n := vm.LiveArenas(); code == 0 && n != 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d VM arenas still reserved at exit\n", n)
		code = 1
	}
	os.Exit(code)
}
