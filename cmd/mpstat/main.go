// Command mpstat runs a configurable exchange workload on a Motor
// world and reports detailed runtime statistics per rank: collector
// activity, the pinning-policy decision counters of the paper's §7.4,
// transport protocol counters, and OO serialization traffic. It is
// the observability surface for understanding how the pinning policy
// behaves on a given workload.
//
//	mpstat -np 2 -size 4096 -iters 500 [-policy motor|alwayspin] [-oo]
//	mpstat -channel sock -faultplan 'delay:dial:delay=2ms' -faultseed 7
//	mpstat -trace /tmp/motor.json -metrics   # Perfetto trace + flat metrics
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"

	"motor"
	"motor/internal/obs"
	"motor/internal/pal"
	"motor/internal/pal/fault"
)

// probeMasm is a tiny managed module loaded (never executed) on every
// rank so each mpstat run exercises the load-time verifier end to end:
// it interns an MPI transfer on a simple array, which the static
// transferability pass must prove integrity-safe.
const probeMasm = `
; verifier probe: loaded for verification only, never called.
.method probe (0) void
  ldc.i4 1
  newarr int32
  ldc.i4 0
  ldc.i4 0
  intern mp.send
  ret
.end
`

func main() {
	np := flag.Int("np", 2, "ranks")
	size := flag.Int("size", 4096, "message bytes (regular ops) / payload bytes (OO)")
	iters := flag.Int("iters", 500, "ping-pong iterations")
	policy := flag.String("policy", "motor", "pinning policy: motor or alwayspin")
	oo := flag.Bool("oo", false, "use the extended object-oriented operations on a linked list")
	coll := flag.Bool("coll", false, "run a collective workload (allreduce+allgather+bcast per iteration) instead of ping-pong")
	collAlgo := flag.String("collalgo", "", "force collective algorithms per op for re-measurement: 'op=algo[,op=algo]' with op allreduce|allgather|bcast and algo auto|recdbl|ring|gatherbcast|binomial|pipelined (docs/COLLECTIVES.md)")
	elements := flag.Int("elements", 16, "linked-list elements for -oo")
	channel := flag.String("channel", "shm", "transport: shm or sock")
	faultPlan := flag.String("faultplan", "", "fault plan spec, e.g. 'reset:write:nth=3,delay:dial:delay=2ms' (sock only; see docs/FAULTS.md)")
	faultSeed := flag.Int64("faultseed", 1, "seed for -faultplan probabilistic rules")
	trace := flag.String("trace", "", "write a Chrome trace_event JSON file of the run (also set by MOTOR_TRACE)")
	metrics := flag.Bool("metrics", false, "print the unified flat metrics snapshot per rank (all subsystems)")
	noverify := flag.Bool("noverify", false, "skip load-time bytecode verification of the probe module")
	telemetry := flag.String("telemetry", "", "serve /metrics, /healthz and /debug/pprof on this address while running (also set by MOTOR_TELEMETRY)")
	gcworkers := flag.Int("gcworkers", 0, "GC mark workers per rank: 1 = the paper's §5.2 policy (whole-block donation, elder never moved), >1 = moving policy (pinned-block segregation, elder compaction), 0 = NumCPU clamped to [2,8]")
	flag.Parse()

	cfg := motor.Config{Ranks: *np, Channel: *channel, Trace: *trace, Telemetry: *telemetry, GCWorkers: *gcworkers}
	if *noverify {
		cfg.Verify = motor.VerifyOff
	}
	if *policy == "alwayspin" {
		cfg.Policy = motor.PolicyAlwaysPin
	}
	var faultPlat *fault.Platform
	if *faultPlan != "" {
		plan, err := fault.ParsePlan(*faultSeed, *faultPlan)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mpstat:", err)
			os.Exit(2)
		}
		if *channel != "sock" {
			fmt.Fprintln(os.Stderr, "mpstat: -faultplan requires -channel sock")
			os.Exit(2)
		}
		faultPlat = fault.New(pal.Default, plan)
		cfg.Platform = faultPlat
	}

	var mu sync.Mutex
	err := motor.Run(cfg, func(r *motor.Rank) error {
		// Load the managed probe so every run exercises the load-time
		// verifier (unless -noverify); rank 0 reports what it checked.
		if _, err := r.Load(probeMasm); err != nil {
			return fmt.Errorf("rank %d: probe module: %w", r.ID(), err)
		}
		if r.ID() == 0 {
			vs := r.VerifyStats()
			qs := r.QuickenStats()
			switch {
			case vs.Methods > 0:
				fmt.Printf("verifier: %d methods, %d instructions, %d transport-verified in %dus\n",
					vs.Methods, vs.Insts, vs.Transportable, vs.ElapsedNs/1000)
			case qs.VerifyCacheHits > 0:
				// A sibling rank verified the identical module first; this
				// rank applied the cached verdict.
				fmt.Printf("verifier: %d module loads served from the verdict cache\n",
					qs.VerifyCacheHits)
			default:
				fmt.Println("verifier: off")
			}
			fmt.Printf("quicken: %d methods (%d->%d insts, %d fused, %d devirt), cache %d hit/%d miss in %dus\n",
				qs.Methods, qs.InstsIn, qs.InstsOut, qs.Fused, qs.Devirted,
				qs.VerifyCacheHits, qs.VerifyCacheMisses, qs.ElapsedNs/1000)
		}
		// Ranks pair off (0-1, 2-3, ...): each pair runs its own exchange.
		peer := r.ID() ^ 1
		if !*coll && r.Size()%2 != 0 {
			return fmt.Errorf("mpstat needs an even rank count")
		}
		if *collAlgo != "" {
			if err := r.SetCollAlgo(*collAlgo); err != nil {
				return err
			}
		}
		initiator := r.ID()%2 == 0
		var work func() error
		if *coll {
			elems := *size / 8
			if elems < 1 {
				elems = 1
			}
			send, err := r.NewFloat64Array(make([]float64, elems))
			if err != nil {
				return err
			}
			recv, err := r.NewFloat64Array(make([]float64, elems))
			if err != nil {
				return err
			}
			gathered, err := r.NewFloat64Array(make([]float64, elems*r.Size()))
			if err != nil {
				return err
			}
			release := r.Protect(&send, &recv, &gathered)
			defer release()
			work = func() error {
				if err := r.Allreduce(send, recv, motor.OpSum); err != nil {
					return err
				}
				if err := r.Allgather(send, gathered); err != nil {
					return err
				}
				return r.Bcast(recv, 0)
			}
		} else if *oo {
			cell, err := r.DeclareClass("Cell")
			if err != nil {
				return err
			}
			u8 := r.ArrayType(motor.Uint8, nil, 1)
			if err := r.CompleteClass(cell, nil, []motor.FieldSpec{
				{Name: "data", Kind: motor.Object, Type: u8, Transportable: true},
				{Name: "next", Kind: motor.Object, Type: cell, Transportable: true},
			}); err != nil {
				return err
			}
			var head motor.Ref
			release := r.Protect(&head)
			defer release()
			per := *size / *elements
			if per < 1 {
				per = 1
			}
			for i := 0; i < *elements; i++ {
				node, err := r.New(cell)
				if err != nil {
					return err
				}
				hold := r.Protect(&node)
				arr, err := r.NewUint8Array(make([]byte, per))
				if err != nil {
					return err
				}
				r.SetField(node, cell, "data", uint64(arr))
				r.SetField(node, cell, "next", uint64(head))
				hold()
				head = node
			}
			work = func() error {
				if initiator {
					if err := r.OSend(head, peer, 1); err != nil {
						return err
					}
					_, _, err := r.ORecv(peer, 1)
					return err
				}
				got, _, err := r.ORecv(peer, 1)
				if err != nil {
					return err
				}
				hold := r.Protect(&got)
				defer hold()
				return r.OSend(got, peer, 1)
			}
		} else {
			buf, err := r.NewUint8Array(make([]byte, *size))
			if err != nil {
				return err
			}
			release := r.Protect(&buf)
			defer release()
			work = func() error {
				if initiator {
					if err := r.Send(buf, peer, 1); err != nil {
						return err
					}
					_, err := r.Recv(buf, peer, 1)
					return err
				}
				if _, err := r.Recv(buf, peer, 1); err != nil {
					return err
				}
				return r.Send(buf, peer, 1)
			}
		}
		t0 := r.WTime()
		for i := 0; i < *iters; i++ {
			if err := work(); err != nil {
				return fmt.Errorf("rank %d iter %d: %w", r.ID(), i, err)
			}
		}
		elapsed := r.WTime() - t0

		gs, ms := r.GCStats(), r.MPStats()
		mu.Lock()
		defer mu.Unlock()
		fmt.Printf("rank %d: %.1f us/iter\n", r.ID(), elapsed/float64(*iters)*1e6)
		fmt.Printf("  gc: scavenges=%d fullGCs=%d promoted=%dB swept=%dB donatedBlocks=%d pause=%dus max=%dus\n",
			gs.Scavenges, gs.FullGCs, gs.BytesPromoted, gs.BytesSwept, gs.BlocksDonated,
			gs.PauseNs/1000, gs.MaxPauseNs/1000)
		fmt.Printf("  gc2: segregated=%d pinnedBlockBytes=%dB compactions=%d compacted=%dB\n",
			gs.PinnedSegregated, gs.PinnedBlockBytes, gs.Compactions, gs.BytesCompacted)
		fmt.Printf("  pins: explicit=%d/%d cond(add/held/drop)=%d/%d/%d\n",
			gs.Pins, gs.Unpins, gs.CondPinsAdded, gs.CondPinsHeld, gs.CondPinsDropped)
		fmt.Printf("  policy: skippedElder=%d heldMoved=%d avoidedFast=%d deferred=%d eager=%d condReq=%d\n",
			ms.PinSkippedElder, ms.PinHeldMoved, ms.PinAvoidedFast, ms.PinDeferred, ms.PinEager, ms.CondPins)
		fmt.Printf("  ops: regular=%d oo=%d/%d serialized=%dB buffers(reuse/alloc/collected)=%d/%d/%d\n",
			ms.Ops, ms.OOSends, ms.OORecvs, ms.SerializedBytes,
			ms.BufferReuses, ms.BufferAllocs, ms.BuffersCollected)
		ds := r.DeviceStats()
		fmt.Printf("  transport: errors(op/dev)=%d/%d peersLost=%d cancelled=%d\n",
			ms.TransportErrors, ds.TransportErrors, ds.PeersLost, ds.Cancelled)
		cs := r.CollStats()
		fmt.Printf("  coll: ops=%d allreduce(rd/ring)=%d/%d allgather(gb/ring)=%d/%d bcast(bin/pipe)=%d/%d bytes=%dB maxInFlight=%d\n",
			cs.Ops, cs.AllreduceRecDbl, cs.AllreduceRing,
			cs.AllgatherGatherBcast, cs.AllgatherRing,
			cs.BcastBinomial, cs.BcastPipelined, cs.BytesMoved, cs.MaxSegsInFlight)
		if ts, ok := r.TransportStats(); ok {
			fmt.Printf("  wire: frames(out/in)=%d/%d bytes(out/in)=%dB/%dB\n",
				ts.FramesSent, ts.FramesRecvd, ts.BytesSent, ts.BytesRecvd)
			fmt.Printf("  sock: dialRetries=%d bootstrapRetries=%d poisoned=%d retired=%d\n",
				ts.DialRetries, ts.BootstrapRetries, ts.PoisonedConns, ts.PeersRetired)
		}
		if *metrics {
			fmt.Printf("-- metrics rank %d --\n", r.ID())
			if err := obs.WriteMetricsText(os.Stdout, r.StatsSnapshot()); err != nil {
				return err
			}
		}
		return nil
	})
	if faultPlat != nil {
		fs := faultPlat.Stats()
		fmt.Printf("faults: injected=%d refuse=%d reset=%d delay=%d short=%d drop=%d partition=%d (events=%d)\n",
			fs.Total,
			fs.Injected[fault.KindRefuse], fs.Injected[fault.KindReset],
			fs.Injected[fault.KindDelay], fs.Injected[fault.KindShort],
			fs.Injected[fault.KindDrop], fs.Injected[fault.KindPartition],
			len(faultPlat.Events()))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpstat:", err)
		os.Exit(1)
	}
}
