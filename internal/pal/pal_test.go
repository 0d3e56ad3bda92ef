package pal

import (
	"io"
	"testing"
	"time"
)

func TestTicksMonotonic(t *testing.T) {
	var p Host
	a := p.Ticks()
	time.Sleep(time.Millisecond)
	b := p.Ticks()
	if b <= a {
		t.Errorf("ticks not monotonic: %d then %d", a, b)
	}
	if b-a < int64(500*time.Microsecond) {
		t.Errorf("tick delta %d implausibly small for a 1ms sleep", b-a)
	}
}

func TestYieldReturns(t *testing.T) {
	var p Host
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			p.Yield()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("yield loop stuck")
	}
}

func TestListenDialRoundtrip(t *testing.T) {
	var p Host
	ln, err := p.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	errc := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			errc <- err
			return
		}
		defer conn.Close()
		_, err = conn.Write([]byte("pal"))
		errc <- err
	}()

	conn, err := p.Dial(ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, 3)
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "pal" {
		t.Errorf("read %q", buf)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

func TestDefaultIsHost(t *testing.T) {
	if _, ok := Default.(Host); !ok {
		t.Errorf("Default platform is %T", Default)
	}
}
