package motor_test

// End-to-end tests for load-time verification through the public API:
// Load rejects bad modules with located diagnostics, VerifyOff is an
// escape hatch, and verified managed programs run entirely on the
// checked-free transfer path (TransferChecksDyn stays zero while the
// debug assertion re-checks every skipped test).

import (
	"strings"
	"sync/atomic"
	"testing"

	"motor"
	"motor/internal/core"
	"motor/internal/vm/bcverify"
)

const badModule = `
.method main (0) void
  .locals 1
  ldloc 0
  pop
  ret
.end`

func TestLoadRejectsUnverifiable(t *testing.T) {
	run(t, motor.Config{Ranks: 2}, func(r *motor.Rank) error {
		_, err := r.Load(badModule)
		if err == nil {
			t.Error("Load accepted an unverifiable module")
			return nil
		}
		var ve *bcverify.Error
		if !errorsAs(err, &ve) {
			t.Errorf("Load error %v (%T) is not *bcverify.Error", err, err)
			return nil
		}
		if ve.Method != "main" || ve.Line != 4 {
			t.Errorf("diagnostic = method %q line %d, want main line 4 (%v)", ve.Method, ve.Line, ve)
		}
		if !strings.Contains(ve.Msg, "before initialization") {
			t.Errorf("unexpected diagnostic: %v", ve)
		}
		return nil
	})
}

// devirtModule's callvirt receiver comes straight from newobj: verified,
// it is devirtualized.
const devirtModule = `
.class Shape
  .method virtual area (0) int32
    ldc.i4 0
    ret.val
  .end
.end
.class Square extends Shape
  .method virtual area (0) int32
    ldc.i4 49
    ret.val
  .end
.end
.method main (0) int32
  newobj Square
  callvirt Shape.area
  ret.val
.end`

// TestLoadVerifyOff: VerifyOff loads what the verifier would reject,
// verifies nothing, and still runs every method on the quickened loop —
// lowered without facts, so not one call site is devirtualized.
func TestLoadVerifyOff(t *testing.T) {
	for _, mod := range []struct {
		src  string
		want int64
	}{{badModule, 0}, {devirtModule, 49}} {
		run(t, motor.Config{Ranks: 2, Verify: motor.VerifyOff}, func(r *motor.Rank) error {
			main, err := r.Load(mod.src)
			if err != nil {
				t.Errorf("VerifyOff Load failed: %v", err)
				return nil
			}
			if vs := r.VerifyStats(); vs.Methods != 0 {
				t.Errorf("VerifyOff still verified %d methods", vs.Methods)
			}
			if !main.Quickened() {
				t.Error("VerifyOff Load left main off the quickened loop")
			}
			if qs := r.QuickenStats(); qs.Methods == 0 || qs.Devirted != 0 {
				t.Errorf("VerifyOff quickened %d methods with %d devirtualized sites, want some and none", qs.Methods, qs.Devirted)
			}
			if got, err := r.Call(main); err != nil || got.Int() != mod.want {
				t.Errorf("main = %v, %v; want %d", got, err, mod.want)
			}
			return nil
		})
	}
	// The control: verified, the same callvirt is devirtualized.
	run(t, motor.Config{Ranks: 2}, func(r *motor.Rank) error {
		if _, err := r.Load(devirtModule); err != nil {
			return err
		}
		if qs := r.QuickenStats(); qs.Devirted != 1 {
			t.Errorf("verified load devirtualized %d sites, want 1", qs.Devirted)
		}
		return nil
	})
}

// managedExchange ping-pongs an int32 array between two ranks through
// the managed mp.send/mp.recv FCalls.
const managedExchange = `
.method main (0) int32
  .locals 2
  ldc.i4 256
  newarr int32
  stloc 0
  intern mp.rank
  brtrue receiver
  ldloc 0  ldc.i4 1  ldc.i4 9  intern mp.send
  ldloc 0  ldc.i4 1  ldc.i4 9  intern mp.recv  stloc 1
  ldc.i4 0
  ret.val
receiver:
  ldloc 0  ldc.i4 0  ldc.i4 9  intern mp.recv  stloc 1
  ldloc 0  ldc.i4 0  ldc.i4 9  intern mp.send
  ldc.i4 0
  ret.val
.end`

func TestVerifiedPathSkipsDynamicChecks(t *testing.T) {
	core.DebugAssertTransferable = true
	defer func() { core.DebugAssertTransferable = false }()

	var dyn, fast atomic.Uint64
	run(t, motor.Config{Ranks: 2}, func(r *motor.Rank) error {
		main, err := r.Load(managedExchange)
		if err != nil {
			return err
		}
		if _, err := r.Call(main); err != nil {
			return err
		}
		ms := r.MPStats()
		dyn.Add(ms.TransferChecksDyn)
		fast.Add(ms.TransferChecksFast)
		return nil
	})
	if dyn.Load() != 0 {
		t.Errorf("verified workload performed %d dynamic transfer checks, want 0", dyn.Load())
	}
	if fast.Load() == 0 {
		t.Error("verified workload recorded no fast-path transfers")
	}
}

// TestUnverifiedPathKeepsDynamicChecks is the control: with VerifyOff
// the same workload must fall back to the dynamic §4.2.1 check.
func TestUnverifiedPathKeepsDynamicChecks(t *testing.T) {
	var dyn, fast atomic.Uint64
	run(t, motor.Config{Ranks: 2, Verify: motor.VerifyOff}, func(r *motor.Rank) error {
		main, err := r.Load(managedExchange)
		if err != nil {
			return err
		}
		if _, err := r.Call(main); err != nil {
			return err
		}
		ms := r.MPStats()
		dyn.Add(ms.TransferChecksDyn)
		fast.Add(ms.TransferChecksFast)
		return nil
	})
	if fast.Load() != 0 {
		t.Errorf("unverified workload took %d fast-path transfers, want 0", fast.Load())
	}
	if dyn.Load() == 0 {
		t.Error("unverified workload recorded no dynamic transfer checks")
	}
}

// TestGoAPIStaysDynamic: transfers driven through the Go facade have
// no managed frame on the stack, so they must use the dynamic check
// even in a verifying world.
func TestGoAPIStaysDynamic(t *testing.T) {
	var dyn atomic.Uint64
	run(t, motor.Config{Ranks: 2}, func(r *motor.Rank) error {
		buf, err := r.NewUint8Array(make([]byte, 64))
		if err != nil {
			return err
		}
		release := r.Protect(&buf)
		defer release()
		peer := 1 - r.ID()
		if r.ID() == 0 {
			if err := r.Send(buf, peer, 1); err != nil {
				return err
			}
		} else {
			if _, err := r.Recv(buf, peer, 1); err != nil {
				return err
			}
		}
		dyn.Add(r.MPStats().TransferChecksDyn)
		return nil
	})
	if dyn.Load() == 0 {
		t.Error("Go-API transfers recorded no dynamic checks")
	}
}

func errorsAs(err error, target **bcverify.Error) bool {
	for err != nil {
		if e, ok := err.(*bcverify.Error); ok {
			*target = e
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestLoadRejectionUnregistersModule: Load assembles before verifying,
// so a rejected module's classes, globals and (unverified) methods
// were already on the VM — Load must roll them back, leaving nothing a
// later module could call by index and freeing the names for a
// corrected retry.
func TestLoadRejectionUnregistersModule(t *testing.T) {
	const bad = `
.class Payload
  .field int64 v
.end
.global state
.method helper (0) void
  ret
.end
.method main (0) void
  .locals 1
  ldloc 0
  pop
  ret
.end`
	const good = `
.class Payload
  .field int64 v
.end
.global state
.method helper (0) void
  ret
.end
.method main (0) int32
  ldc.i4 7
  ret.val
.end`
	run(t, motor.Config{Ranks: 2}, func(r *motor.Rank) error {
		nm, nt := r.VM().NumMethods(), r.VM().NumTypes()
		if _, err := r.Load(bad); err == nil {
			t.Error("Load accepted an unverifiable module")
			return nil
		}
		if got := r.VM().NumMethods(); got != nm {
			t.Errorf("rejected Load left %d methods registered, want %d", got, nm)
		}
		if got := r.VM().NumTypes(); got != nt {
			t.Errorf("rejected Load left %d types registered, want %d", got, nt)
		}
		main, err := r.Load(good)
		if err != nil {
			t.Errorf("corrected module failed to load: %v", err)
			return nil
		}
		res, err := r.Call(main)
		if err != nil {
			return err
		}
		if res.Int() != 7 {
			t.Errorf("corrected main returned %d, want 7", res.Int())
		}
		return nil
	})
}

// superclassJoin sends an object whose static type after a branch
// join is the reference-free superclass Plain, while the runtime
// value is the reference-bearing subclass Linked. The verifier must
// NOT prove this transferable (the join is only an upper bound); the
// dynamic check must then reject the send at run time.
const superclassJoin = `
.class Plain
  .field int64 v
.end
.class Linked extends Plain
  .field object next
.end
.method main (0) void
  .locals 1
  ldc.i4 1
  brtrue linked
  newobj Plain
  stloc 0
  br send
linked:
  newobj Linked
  stloc 0
send:
  ldloc 0
  ldc.i4 0
  ldc.i4 3
  intern mp.send
  ret
.end`

func TestSuperclassJoinKeepsDynamicCheck(t *testing.T) {
	core.DebugAssertTransferable = true
	defer func() { core.DebugAssertTransferable = false }()

	var dyn atomic.Uint64
	run(t, motor.Config{Ranks: 2}, func(r *motor.Rank) error {
		main, err := r.Load(superclassJoin)
		if err != nil {
			return err
		}
		_, err = r.Call(main)
		if err == nil {
			t.Error("sending a reference-bearing subclass through a superclass-typed join succeeded")
		} else if !strings.Contains(err.Error(), "object contains references") {
			t.Errorf("unexpected error from joined send: %v", err)
		}
		dyn.Add(r.MPStats().TransferChecksDyn)
		return nil
	})
	if dyn.Load() == 0 {
		t.Error("join-typed send skipped the dynamic integrity check")
	}
}
