package fault

import (
	"io"
	"net"
	"syscall"
	"time"

	"motor/internal/pal"
)

// Platform wraps an inner pal.Platform and injects the plan's faults
// into its dials, accepts, reads and writes. Clock and yield
// pass through untouched.
type Platform struct {
	inner pal.Platform
	inj   *injector
}

var _ pal.Platform = (*Platform)(nil)

// New builds a fault-injecting platform over inner (pal.Default when
// inner is nil).
func New(inner pal.Platform, plan Plan) *Platform {
	if inner == nil {
		inner = pal.Default
	}
	return &Platform{inner: inner, inj: newInjector(plan)}
}

// Events returns the faults injected so far, in injection order.
// Identical plan + seed + operation sequence yields an identical log.
func (p *Platform) Events() []Event { return p.inj.snapshotEvents() }

// Stats returns injection counters by kind.
func (p *Platform) Stats() Stats { return p.inj.snapshotStats() }

// Ticks implements pal.Platform.
func (p *Platform) Ticks() int64 { return p.inner.Ticks() }

// Yield implements pal.Platform.
func (p *Platform) Yield() { p.inner.Yield() }

// Listen implements pal.Platform; accepted connections are wrapped
// with the injector.
func (p *Platform) Listen(addr string) (net.Listener, error) {
	ln, err := p.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &faultListener{Listener: ln, inj: p.inj}, nil
}

// Dial implements pal.Platform with OpDial rules applied; successful
// connections are wrapped with the injector.
func (p *Platform) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	if r, ok := p.inj.decide(OpDial, addr); ok {
		switch r.Kind {
		case KindDelay:
			time.Sleep(r.delay())
		case KindReset, KindDrop:
			// Connection established then torn down immediately.
			if conn, err := p.inner.Dial(addr, timeout); err == nil {
				conn.Close()
			}
			return nil, opErr("dial", syscall.ECONNRESET)
		default:
			return nil, opErr("dial", syscall.ECONNREFUSED)
		}
	}
	conn, err := p.inner.Dial(addr, timeout)
	if err != nil {
		return nil, err
	}
	return &faultConn{Conn: conn, inj: p.inj, peer: addr}, nil
}

func opErr(op string, errno syscall.Errno) error {
	return &net.OpError{Op: op, Net: "tcp", Err: errno}
}

// timeoutErr satisfies net.Error with Timeout() true, so partitioned
// reads look exactly like a deadline expiry to the channel's poller.
type timeoutErr struct{}

func (timeoutErr) Error() string   { return "fault: injected partition timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

// faultListener wraps accepts with OpAccept rules.
type faultListener struct {
	net.Listener
	inj *injector
}

func (l *faultListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	peer := conn.RemoteAddr().String()
	if r, ok := l.inj.decide(OpAccept, peer); ok {
		switch r.Kind {
		case KindDelay:
			time.Sleep(r.delay())
		default:
			// The connection dies right after the handshake; the
			// caller discovers it on first use.
			conn.Close()
		}
	}
	return &faultConn{Conn: conn, inj: l.inj, peer: peer}, nil
}

// SetDeadline forwards to the inner listener when it supports
// deadlines (the sock bootstrap bounds its mesh accepts with this).
func (l *faultListener) SetDeadline(t time.Time) error {
	if d, ok := l.Listener.(interface{ SetDeadline(time.Time) error }); ok {
		return d.SetDeadline(t)
	}
	return nil
}

// faultConn applies OpRead / OpWrite rules to one connection.
type faultConn struct {
	net.Conn
	inj  *injector
	peer string
}

func (c *faultConn) Read(p []byte) (int, error) {
	r, ok := c.inj.decide(OpRead, c.peer)
	if !ok {
		return c.Conn.Read(p)
	}
	switch r.Kind {
	case KindDelay:
		time.Sleep(r.delay())
		return c.Conn.Read(p)
	case KindShort:
		n := r.Bytes
		if n < 1 {
			n = 1
		}
		if n > len(p) {
			n = len(p)
		}
		return c.Conn.Read(p[:n])
	case KindDrop:
		n := r.Bytes
		if n > len(p) {
			n = len(p)
		}
		var got int
		if n > 0 {
			got, _ = c.Conn.Read(p[:n])
		}
		c.Conn.Close()
		if got > 0 {
			return got, nil
		}
		return 0, opErr("read", syscall.ECONNRESET)
	case KindPartition:
		// The bytes never arrive: behave like a deadline expiry.
		time.Sleep(r.delay())
		return 0, timeoutErr{}
	default: // KindReset, KindRefuse
		c.Conn.Close()
		return 0, opErr("read", syscall.ECONNRESET)
	}
}

func (c *faultConn) Write(p []byte) (int, error) {
	r, ok := c.inj.decide(OpWrite, c.peer)
	if !ok {
		return c.Conn.Write(p)
	}
	switch r.Kind {
	case KindDelay:
		time.Sleep(r.delay())
		return c.Conn.Write(p)
	case KindShort:
		// Transmit a strict prefix and report a short write: the
		// frame on the wire is now partial.
		n := r.Bytes
		if n >= len(p) {
			n = len(p) / 2
		}
		if n < 0 {
			n = 0
		}
		var wrote int
		if n > 0 {
			wrote, _ = c.Conn.Write(p[:n])
		}
		return wrote, &net.OpError{Op: "write", Net: "tcp", Err: io.ErrShortWrite}
	case KindDrop:
		n := r.Bytes
		if n > len(p) {
			n = len(p)
		}
		var wrote int
		if n > 0 {
			wrote, _ = c.Conn.Write(p[:n])
		}
		c.Conn.Close()
		return wrote, opErr("write", syscall.ECONNRESET)
	case KindPartition:
		// The bytes vanish silently.
		return len(p), nil
	default: // KindReset, KindRefuse
		c.Conn.Close()
		return 0, opErr("write", syscall.ECONNRESET)
	}
}

// SetNoDelay forwards to the inner connection when it is a TCP
// connection (the sock channel disables Nagle after bootstrap).
func (c *faultConn) SetNoDelay(v bool) error {
	if tc, ok := c.Conn.(interface{ SetNoDelay(bool) error }); ok {
		return tc.SetNoDelay(v)
	}
	return nil
}
