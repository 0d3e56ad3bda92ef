package bcverify_test

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

// newVM builds a VM whose arena is released when the test ends.
func newVM(t testing.TB, cfg vm.Config) *vm.VM {
	v := vm.New(cfg)
	t.Cleanup(v.Close)
	return v
}
