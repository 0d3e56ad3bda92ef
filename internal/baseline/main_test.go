package baseline_test

import (
	"fmt"
	"os"
	"testing"

	"motor/internal/vm"
)

// TestMain fails the package if a test left a VM's arena reserved.
func TestMain(m *testing.M) {
	code := m.Run()
	if n := vm.LiveArenas(); code == 0 && n != 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d VM arenas still reserved at exit\n", n)
		code = 1
	}
	os.Exit(code)
}
