package bench

import (
	"fmt"
	"strings"

	"motor/internal/core"
	"motor/internal/mp"
	"motor/internal/vm"
)

// PolicyBehaviour runs an allocation-heavy exchange workload and
// reports the §7.4 decision counters for each pinning policy — the
// behavioural (rather than timing) half of ablation A1: how often the
// paper's policy avoids pins that the wrapper discipline would take,
// and how the conditional pin requests interact with collections.
type PolicyBehaviour struct {
	Policy          string
	Ops             uint64
	PinSkippedElder uint64
	PinAvoidedFast  uint64
	PinDeferred     uint64
	PinEager        uint64
	CondPins        uint64
	Scavenges       uint64
	CondHeld        uint64
	CondDropped     uint64
	BlocksDonated   uint64
}

// RunPolicyBehaviour measures both policies on the same workload:
// iters rounds of (allocate fresh young buffer, Irecv into it, force
// churn, Wait) against a partner that answers with blocking sends —
// the schedule that exercises every §7.4 rule.
func RunPolicyBehaviour(iters, size int) ([]PolicyBehaviour, error) {
	var out []PolicyBehaviour
	for _, pol := range []struct {
		name   string
		policy core.PinPolicy
	}{{"Motor", core.PolicyMotor}, {"always-pin", core.PolicyAlwaysPin}} {
		worlds, err := mp.NewLocalWorlds(mp.ChannelShm, 2, 0)
		if err != nil {
			return nil, err
		}
		type res struct {
			pb  PolicyBehaviour
			v   *vm.VM
			err error
		}
		results := make(chan res, 2)
		for _, w := range worlds {
			go func(w *mp.World) {
				defer w.Close()
				v := vm.New(vm.Config{
					Name: fmt.Sprintf("pol%d", w.Rank()),
					Heap: vm.HeapConfig{YoungSize: 32 << 10, InitialElder: 512 << 10, ArenaMax: 256 << 20},
				})
				e := core.Attach(v, w, core.WithPolicy(pol.policy))
				th := v.StartThread("bench")
				defer th.End()
				err := policyWorkload(v, e, th, w.Rank(), iters, size)
				es := e.Stats.Snapshot()
				gs := v.Heap.Stats.Snapshot()
				pb := PolicyBehaviour{
					Policy:          pol.name,
					Ops:             es.Ops,
					PinSkippedElder: es.PinSkippedElder,
					PinAvoidedFast:  es.PinAvoidedFast,
					PinDeferred:     es.PinDeferred,
					PinEager:        es.PinEager,
					CondPins:        es.CondPins,
					Scavenges:       gs.Scavenges,
					CondHeld:        gs.CondPinsHeld,
					CondDropped:     gs.CondPinsDropped,
					BlocksDonated:   gs.BlocksDonated,
				}
				results <- res{pb, v, err}
			}(w)
		}
		var merged PolicyBehaviour
		merged.Policy = pol.name
		for i := 0; i < 2; i++ {
			r := <-results
			if r.err != nil {
				return nil, r.err
			}
			// Closed on return, once both ranks have reported.
			defer r.v.Close()
			merged.Ops += r.pb.Ops
			merged.PinSkippedElder += r.pb.PinSkippedElder
			merged.PinAvoidedFast += r.pb.PinAvoidedFast
			merged.PinDeferred += r.pb.PinDeferred
			merged.PinEager += r.pb.PinEager
			merged.CondPins += r.pb.CondPins
			merged.Scavenges += r.pb.Scavenges
			merged.CondHeld += r.pb.CondHeld
			merged.CondDropped += r.pb.CondDropped
			merged.BlocksDonated += r.pb.BlocksDonated
		}
		out = append(out, merged)
	}
	return out, nil
}

func policyWorkload(v *vm.VM, e *core.Engine, th *vm.Thread, rank, iters, size int) error {
	h := v.Heap
	u8 := v.ArrayType(vm.KindUint8, nil, 1)
	peer := 1 - rank
	for i := 0; i < iters; i++ {
		buf, err := h.AllocArray(u8, size)
		if err != nil {
			return err
		}
		if rank == 0 {
			// Non-blocking receive into a fresh (young) buffer, churn
			// while it is outstanding, then wait — the conditional-pin
			// schedule.
			id, err := e.Irecv(th, buf, peer, i)
			if err != nil {
				return err
			}
			for k := 0; k < 8; k++ {
				if _, err := h.AllocArray(u8, 2048); err != nil {
					return err
				}
			}
			if _, err := e.Wait(th, id); err != nil {
				return err
			}
			// Reply with a blocking send (often fast-completing).
			if err := e.Send(th, buf, peer, i); err != nil {
				return err
			}
		} else {
			if err := e.Send(th, buf, peer, i); err != nil {
				return err
			}
			if _, err := e.Recv(th, buf, peer, i); err != nil {
				return err
			}
		}
	}
	return nil
}

// FormatPolicyBehaviour renders the counters as an aligned table.
func FormatPolicyBehaviour(rows []PolicyBehaviour) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %8s %10s %10s %10s %8s %9s %10s %9s %9s %8s\n",
		"policy", "ops", "skipElder", "avoidFast", "deferred", "eager",
		"condReq", "scavenges", "condHeld", "condDrop", "donated")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-12s %8d %10d %10d %10d %8d %9d %10d %9d %9d %8d\n",
			r.Policy, r.Ops, r.PinSkippedElder, r.PinAvoidedFast, r.PinDeferred,
			r.PinEager, r.CondPins, r.Scavenges, r.CondHeld, r.CondDropped, r.BlocksDonated)
	}
	return sb.String()
}
