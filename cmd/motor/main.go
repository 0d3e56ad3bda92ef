// Command motor executes a masm program on a Motor world: every rank
// runs its own virtual machine with the System.MP message-passing
// FCalls bound, realizing the paper's compile-once-run-anywhere
// deployment story — the same program text runs unchanged on any host
// and transport.
//
// Usage (single process, N in-process ranks):
//
//	motor [-np N] [-channel shm|sock] [-policy motor|alwayspin] program.masm
//
// Usage (multi-process over TCP, one OS process per rank):
//
//	motor -mode serve -addr :7777 -np 4            # rendezvous service
//	motor -mode rank -root HOST:7777 -rank I -np 4 program.masm
//
// Usage (static verification only, no world, exit 1 on rejection):
//
//	motor -mode check program.masm [more.masm ...]
//
// Modules are statically verified at load (docs/VERIFIER.md); pass
// -noverify to run unchecked bytecode.
//
// The program's main method may return void or int32; a non-zero
// int32 becomes the exit code.
package main

import (
	"flag"
	"fmt"
	"os"

	"motor"
	"motor/internal/core"
	"motor/internal/vm"
	"motor/internal/vm/bcverify"
)

// check verifies each module file without building a world: it
// assembles against a bare VM with the System.MP surface stubbed in
// and runs the full verifier. Returns the process exit code.
func check(files []string) int {
	exit := 0
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "motor:", err)
			return 1
		}
		stats, err := verifySource(string(src))
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			exit = 1
			continue
		}
		fmt.Printf("%s: OK (%d methods, %d instructions, %d transport-verified)\n",
			path, stats.Methods, stats.Insts, stats.Transportable)
	}
	return exit
}

// verifySource assembles src against a bare VM and verifies it.
func verifySource(src string) (bcverify.Stats, error) {
	v := vm.New(vm.Config{})
	defer v.Close()
	core.RegisterVerifyStubs(v)
	mod, err := v.AssembleModule(src)
	if err != nil {
		return bcverify.Stats{}, err
	}
	return bcverify.VerifyModule(v, mod.Methods, bcverify.Options{Sigs: core.Signatures()})
}

func main() {
	np := flag.Int("np", 2, "number of ranks")
	channel := flag.String("channel", "shm", "transport: shm or sock (local mode)")
	policy := flag.String("policy", "motor", "pinning policy: motor or alwayspin")
	gcstats := flag.Bool("gcstats", false, "print per-rank GC and MP stats on exit")
	mode := flag.String("mode", "local", "local, serve (rendezvous host), rank (join a multi-process world), or check (verify only)")
	addr := flag.String("addr", "127.0.0.1:7777", "serve mode: rendezvous listen address")
	root := flag.String("root", "127.0.0.1:7777", "rank mode: rendezvous address to join")
	rankID := flag.Int("rank", 0, "rank mode: this process's world rank")
	noverify := flag.Bool("noverify", false, "skip load-time bytecode verification (methods run on the fact-free lowering)")
	gcworkers := flag.Int("gcworkers", 0, "GC mark workers per rank: 1 = the paper's §5.2 policy (whole-block donation, elder never moved), >1 = moving policy (pinned-block segregation, elder compaction), 0 = NumCPU clamped to [2,8]")
	telemetry := flag.String("telemetry", "", "serve /metrics, /healthz and /debug/pprof on this address while running (also set by MOTOR_TELEMETRY)")
	flag.Parse()

	if *mode == "check" {
		if flag.NArg() == 0 {
			fmt.Fprintln(os.Stderr, "usage: motor -mode check program.masm [more.masm ...]")
			os.Exit(2)
		}
		os.Exit(check(flag.Args()))
	}

	cfg := motor.Config{Ranks: *np, Channel: *channel, Telemetry: *telemetry, GCWorkers: *gcworkers}
	if *noverify {
		cfg.Verify = motor.VerifyOff
	}
	switch *policy {
	case "motor":
		cfg.Policy = motor.PolicyMotor
	case "alwayspin":
		cfg.Policy = motor.PolicyAlwaysPin
	default:
		fmt.Fprintf(os.Stderr, "motor: unknown policy %q\n", *policy)
		os.Exit(2)
	}

	if *mode == "serve" {
		if err := motor.Serve(*addr, *np); err != nil {
			fmt.Fprintln(os.Stderr, "motor:", err)
			os.Exit(1)
		}
		return
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: motor [-np N] [-channel shm|sock] program.masm")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "motor:", err)
		os.Exit(1)
	}

	exit := 0
	runRank := func(r *motor.Rank) error {
		main, err := r.Load(string(src))
		if err != nil {
			return err
		}
		if main == nil {
			return fmt.Errorf("rank %d: program has no main method", r.ID())
		}
		v, err := r.Call(main)
		if err != nil {
			return fmt.Errorf("rank %d: %w", r.ID(), err)
		}
		if main.HasRet && v.Int() != 0 {
			exit = int(v.Int())
		}
		if *gcstats {
			gs, ms := r.GCStats(), r.MPStats()
			fmt.Fprintf(os.Stderr,
				"rank %d: scavenges=%d fullGCs=%d promoted=%dB pins=%d condPins=%d | ops=%d oo=%d/%d serialized=%dB\n",
				r.ID(), gs.Scavenges, gs.FullGCs, gs.BytesPromoted, gs.Pins, gs.CondPinsAdded,
				ms.Ops, ms.OOSends, ms.OORecvs, ms.SerializedBytes)
		}
		return nil
	}

	switch *mode {
	case "local":
		err = motor.Run(cfg, runRank)
	case "rank":
		var r *motor.Rank
		var closer func() error
		r, closer, err = motor.Join(cfg, *root, *rankID, *np)
		if err == nil {
			err = runRank(r)
			if cerr := closer(); cerr != nil && err == nil {
				err = cerr
			}
		}
	default:
		fmt.Fprintf(os.Stderr, "motor: unknown mode %q\n", *mode)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "motor:", err)
		os.Exit(1)
	}
	os.Exit(exit)
}
