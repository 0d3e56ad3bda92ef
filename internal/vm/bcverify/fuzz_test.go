package bcverify_test

// Fuzz targets for the verifier: whatever the input, verification
// must terminate and either accept or return an error — never panic.

import (
	"testing"

	"motor/internal/vm"
	"motor/internal/vm/bcverify"
)

// FuzzVerify drives the abstract interpreter with raw bytecode in a
// hand-built method — the loader never produces most of these shapes,
// which is exactly the point.
func FuzzVerify(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0), false)
	f.Add([]byte{byte(vm.OpRet)}, uint8(0), uint8(0), false)
	f.Add([]byte{byte(vm.OpLdcI4), 1, 0, 0, 0, byte(vm.OpRetVal)}, uint8(0), uint8(0), true)
	f.Add([]byte{byte(vm.OpAdd)}, uint8(2), uint8(2), false)
	f.Add([]byte{byte(vm.OpBr), 0xF0, 0xFF, 0xFF, 0xFF}, uint8(0), uint8(0), false)
	f.Add([]byte{byte(vm.OpLdLoc), 9, 0}, uint8(0), uint8(1), false)
	f.Add([]byte{0xEE, 0xBB}, uint8(0), uint8(0), false)
	f.Fuzz(func(t *testing.T, code []byte, nargs, nlocals uint8, hasRet bool) {
		v := newVM(t, vm.Config{})
		m := v.AddMethod(nil, &vm.Method{
			Name: "fuzz", Code: code,
			NArgs: int(nargs), NLocals: int(nlocals), HasRet: hasRet,
		})
		_ = bcverify.VerifyMethod(v, m, bcverify.Options{})
	})
}

// FuzzVerifyMasm feeds assembler output into the verifier: any source
// that assembles must verify or be rejected with a *bcverify.Error,
// without panicking. Executing what verifies, on the quickened loop and
// on the reference interpreter, is FuzzQuickenMasm in package vm, which
// carries the same seed corpus.
func FuzzVerifyMasm(f *testing.F) {
	f.Add(".method main (0) void\n  ret\n.end")
	f.Add(".method main (0) int32\n  ldc.i4 3\n  ret.val\n.end")
	f.Add(".method main (0) void\n  add\n  ret\n.end")
	f.Add(".method main (0) void\n.locals 1\n  ldloc 0\n  pop\n  ret\n.end")
	f.Add(".class C\n.field int32 x\n.end\n.method main (0) void\n  newobj C\n  pop\n  ret\n.end")
	f.Add(".method main (0) int32\n.locals 1\n  ldc.i4 0\n  stloc 0\nl:\n  ldloc 0\n  ldc.i4 1\n  add\n  stloc 0\n  ldloc 0\n  ldc.i4 9\n  clt\n  brtrue l\n  ldloc 0\n  ret.val\n.end")
	f.Add(".method main (0) int32\n  ldc.r8 1e300\n  conv.f2i\n  ret.val\n.end")
	f.Add(".method main (0) int32\n  ldc.i4 1\n  ldc.i4 0\n  div\n  ret.val\n.end")
	f.Fuzz(func(t *testing.T, src string) {
		v := newVM(t, vm.Config{})
		mod, err := v.AssembleModule(src)
		if err != nil {
			return
		}
		if _, err := bcverify.VerifyModule(v, mod.Methods, bcverify.Options{}); err != nil {
			if _, ok := err.(*bcverify.Error); !ok {
				t.Fatalf("rejection %v (%T) is not *bcverify.Error", err, err)
			}
		}
	})
}
