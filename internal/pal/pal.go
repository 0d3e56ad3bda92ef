// Package pal is the Platform Adaptation Layer: the virtual subset of
// operating-system services the Motor runtime and message-passing
// core consume. Mirroring the SSCLI's PAL (paper §5.4), everything
// above this package is platform-agnostic; porting Motor to a new
// transport or platform means supplying a new Platform implementation
// here, not touching the runtime.
package pal

import (
	"net"
	"runtime"
	"time"
)

// Platform virtualizes the host services Motor needs: a monotonic
// clock, scheduling yield, and a socket factory for the sock channel.
// The environment is not among them: motor's Config.fill is its only
// reader.
type Platform interface {
	// Ticks returns a monotonic timestamp in nanoseconds.
	Ticks() int64
	// Yield relinquishes the processor briefly (used inside
	// polling-waits so a spinning progress loop stays polite).
	Yield()
	// Listen opens a stream listener on the given address
	// ("host:port", empty port picks a free one).
	Listen(addr string) (net.Listener, error)
	// Dial connects a stream socket.
	Dial(addr string, timeout time.Duration) (net.Conn, error)
}

// Host is the real operating-system platform.
type Host struct{}

var start = time.Now()

// Ticks implements Platform using the Go monotonic clock.
func (Host) Ticks() int64 { return int64(time.Since(start)) }

// Yield implements Platform.
func (Host) Yield() { runtime.Gosched() }

// Listen implements Platform over TCP.
func (Host) Listen(addr string) (net.Listener, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	return net.Listen("tcp", addr)
}

// Dial implements Platform over TCP.
func (Host) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, timeout)
}

// Default is the host platform instance used when a component is not
// configured with an explicit Platform.
var Default Platform = Host{}
