package main

import (
	"context"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// The test binary re-executes itself as mpstat so a hung world is a
// child process the parent can kill, not goroutines spinning inside
// the test.
const runMainEnv = "MPSTAT_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// The exchange modes pair ranks off (id^1), so every even world must
// finish, not only a 2-rank one.
func TestFourRankExchangeTerminates(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range [][]string{nil, {"-oo"}} {
		args := append([]string{"-np", "4", "-iters", "5"}, mode...)
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, exe, args...)
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			out, err := cmd.CombinedOutput()
			if ctx.Err() != nil {
				t.Fatalf("mpstat %v still running after 30s:\n%s", args, out)
			}
			if err != nil {
				t.Fatalf("mpstat %v: %v\n%s", args, err, out)
			}
			for _, want := range []string{"rank 0:", "rank 1:", "rank 2:", "rank 3:"} {
				if !strings.Contains(string(out), want) {
					t.Errorf("output has no %q line:\n%s", want, out)
				}
			}
		})
	}
}
