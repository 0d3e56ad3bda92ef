package bcverify_test

// Structural rejections only reachable with hand-built bytecode — the
// assembler cannot emit mid-instruction branch targets, undefined
// opcodes, or truncated operands.

import (
	"strings"
	"testing"

	"motor/internal/vm"
	"motor/internal/vm/bcverify"
)

func verifyRaw(t *testing.T, code []byte, nargs, nlocals int, hasRet bool) error {
	t.Helper()
	v := newVM(t, vm.Config{})
	m := v.AddMethod(nil, &vm.Method{
		Name: "raw", Code: code, NArgs: nargs, NLocals: nlocals, HasRet: hasRet,
	})
	return bcverify.VerifyMethod(v, m, bcverify.Options{})
}

func wantReject(t *testing.T, err error, substr string) {
	t.Helper()
	if err == nil {
		t.Fatalf("verified, want rejection containing %q", substr)
	}
	if _, ok := err.(*bcverify.Error); !ok {
		t.Fatalf("rejection %v (%T) is not *bcverify.Error", err, err)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("rejection %q does not contain %q", err, substr)
	}
}

func TestRawBranchIntoOperand(t *testing.T) {
	// br -9 from endPC=10 lands at pc=1 — inside ldc.i4's operand.
	code := []byte{
		byte(vm.OpLdcI4), 1, 0, 0, 0, // pc=0..4
		byte(vm.OpBr), 0xF7, 0xFF, 0xFF, 0xFF, // pc=5
	}
	err := verifyRaw(t, code, 0, 0, false)
	wantReject(t, err, "not an instruction boundary")
}

func TestRawBranchOutOfRange(t *testing.T) {
	// br far past the end of the method.
	err := verifyRaw(t, []byte{byte(vm.OpBr), 0x40, 0x00, 0x00, 0x00}, 0, 0, false)
	wantReject(t, err, "not an instruction boundary")
}

func TestRawBranchToExactEnd(t *testing.T) {
	// br +0 lands exactly on len(code): the implicit void return.
	if err := verifyRaw(t, []byte{byte(vm.OpBr), 0, 0, 0, 0}, 0, 0, false); err != nil {
		t.Fatalf("branch-to-end should verify: %v", err)
	}
}

func TestRawUnknownOpcode(t *testing.T) {
	err := verifyRaw(t, []byte{0xEE}, 0, 0, false)
	wantReject(t, err, "unknown opcode")
}

func TestRawTruncatedOperand(t *testing.T) {
	err := verifyRaw(t, []byte{byte(vm.OpLdcI4), 1, 2}, 0, 0, false)
	wantReject(t, err, "truncated operand")
}

func TestRawEmptyValuedMethod(t *testing.T) {
	err := verifyRaw(t, nil, 0, 0, true)
	wantReject(t, err, "falls off the end")
}

func TestRawVerifiedFlagNotSetOnReject(t *testing.T) {
	v := newVM(t, vm.Config{})
	m := v.AddMethod(nil, &vm.Method{Name: "bad", Code: []byte{byte(vm.OpAdd)}})
	if err := bcverify.VerifyMethod(v, m, bcverify.Options{}); err == nil {
		t.Fatal("want rejection")
	}
	if m.Verified || m.TransportVerified {
		t.Fatalf("rejected method flagged verified: %+v", m)
	}
}
