// Command benchfig regenerates the tables behind the paper's
// evaluation figures (§8) and the DESIGN.md ablations.
//
//	benchfig -fig 9            # Figure 9: ping-pong, regular MPI operations
//	benchfig -fig 9 -stats     # + the §8 derived statistics
//	benchfig -fig 10           # Figure 10: object-tree transport
//	benchfig -ablate pin       # A1: pinning policy vs always-pin
//	benchfig -ablate visited   # A2: linear vs hashed visited structure
//	benchfig -ablate eager     # A5: eager/rendezvous threshold sweep
//	benchfig -ablate policy    # §7.4 decision counters under GC pressure
//	benchfig -quick            # smaller protocol for smoke runs
//
// Absolute numbers reflect this machine, not the paper's 2006
// Pentium-M testbed; the reproduction target is the SHAPE: ordering
// of the series, relative gaps, and failure points (see
// EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"os"

	"motor/internal/bench"
	"motor/internal/mp"
)

func main() {
	fig := flag.Int("fig", 0, "figure to regenerate: 9 or 10")
	ablate := flag.String("ablate", "", "ablation to run: pin, policy, visited or eager")
	quick := flag.Bool("quick", false, "reduced protocol for smoke runs")
	stats := flag.Bool("stats", false, "print the derived statistics (figure 9)")
	channel := flag.String("channel", "shm", "transport: shm or sock")
	flag.Parse()

	proto := bench.PaperProtocol()
	if *quick {
		proto = bench.Quick()
	}
	switch *channel {
	case "shm":
		proto.Channel = mp.ChannelShm
	case "sock":
		proto.Channel = mp.ChannelSock
	default:
		fmt.Fprintf(os.Stderr, "benchfig: unknown channel %q\n", *channel)
		os.Exit(2)
	}

	switch {
	case *fig == 9:
		series, err := bench.Fig9(proto, bench.Fig9Sizes())
		fatal(err)
		fmt.Print(bench.FormatTable(
			"Figure 9 — ping-pong, regular MPI operations (microseconds per iteration)",
			"bytes", series))
		if *stats {
			st := bench.ComputeFig9Stats(series)
			fmt.Printf("\nMotor vs Indiana SSCLI (paper: 16%% peak, 8%% mean, 3%% mean >64KiB):\n")
			fmt.Printf("  peak advantage:        %.1f%%\n", st.PeakPct)
			fmt.Printf("  mean advantage:        %.1f%%\n", st.MeanPct)
			fmt.Printf("  mean advantage >64KiB: %.1f%%\n", st.MeanBigPct)
		}
		if v := bench.VerifyOrdering(series, 64); v != "" {
			fmt.Printf("\nordering check: VIOLATIONS: %s\n", v)
		} else {
			fmt.Printf("\nordering check: C++ <= Motor <= Java holds\n")
		}
	case *fig == 10:
		series, err := bench.Fig10(proto, bench.Fig10Counts())
		fatal(err)
		fmt.Print(bench.FormatTable(
			"Figure 10 — ping-pong, object-tree transport (microseconds per iteration)",
			"objects", series))
	case *ablate == "pin":
		series, err := bench.AblationPinPolicy(proto, bench.Fig9Sizes())
		fatal(err)
		fmt.Print(bench.FormatTable(
			"Ablation A1 — pinning policy vs always-pin (microseconds per iteration)",
			"bytes", series))
	case *ablate == "eager":
		series, err := bench.AblationEagerThreshold(proto, bench.Fig9Sizes(), []int{1 << 10, 8 << 10, 64 << 10, 512 << 10})
		fatal(err)
		fmt.Print(bench.FormatTable(
			"Ablation A5 — eager/rendezvous threshold sweep, native transport (microseconds per iteration)",
			"bytes", series))
	case *ablate == "policy":
		rows, err := bench.RunPolicyBehaviour(500, 4096)
		fatal(err)
		fmt.Println("Pinning-policy behaviour (decision counters, both ranks summed; paper §7.4)")
		fmt.Print(bench.FormatPolicyBehaviour(rows))
	case *ablate == "visited":
		series, err := bench.AblationVisited(proto, bench.Fig10Counts())
		fatal(err)
		fmt.Print(bench.FormatTable(
			"Ablation A2 — linear vs hashed visited structure (microseconds per iteration)",
			"objects", series))
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchfig:", err)
		os.Exit(1)
	}
}
