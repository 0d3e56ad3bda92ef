package motor_test

import (
	"errors"
	"net"
	"testing"

	"motor"
)

// TestTelemetryAddrLifecycle checks that TelemetryAddr names a live
// endpoint only while its session is open: inside a Run's body, not
// after it returns, and not after a Join that failed to reach its
// rendezvous root (which used to leave the closed endpoint's address
// behind).
func TestTelemetryAddrLifecycle(t *testing.T) {
	err := motor.Run(motor.Config{Telemetry: "127.0.0.1:0"}, func(r *motor.Rank) error {
		if motor.TelemetryAddr() == "" {
			return errors.New("TelemetryAddr is empty inside Run's body")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := motor.TelemetryAddr(); got != "" {
		t.Fatalf("TelemetryAddr after Run = %q, want \"\"", got)
	}

	// A port that refuses connections: bound, then released.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	refused := ln.Addr().String()
	ln.Close()
	_, closer, err := motor.Join(motor.Config{Channel: "sock", Telemetry: "127.0.0.1:0"}, refused, 0, 2)
	if err == nil {
		closer()
		t.Fatalf("Join to the refusing root %s succeeded", refused)
	}
	if got := motor.TelemetryAddr(); got != "" {
		t.Fatalf("TelemetryAddr after a failed Join = %q, want \"\" (Join: %v)", got, err)
	}
}
