//go:build !race

package channel

import "testing"

// TestShmInlineExchangeAllocs: a steady 8 B exchange in both
// directions of a pair allocates nothing per frame. The payload rides
// in the slot, and the segments come back as spares.
func TestShmInlineExchangeAllocs(t *testing.T) {
	f := NewShmFabric(2)
	ep := [2]*ShmChannel{f.Endpoint(0), f.Endpoint(1)}
	payload := []byte("8 bytes!")
	sink := &fixedSink{buf: make([]byte, len(payload))}
	exchange := func() {
		for from := range ep {
			if err := ep[from].Send(1-from, Header{Type: PktEager}, payload); err != nil {
				t.Fatal(err)
			}
			if ok, _ := ep[1-from].Poll(sink); !ok || string(sink.buf) != string(payload) {
				t.Fatalf("frame from %d: delivered %v, payload %q", from, ok, sink.buf)
			}
		}
	}
	for i := 0; i < 2*shmSegSlots; i++ { // both rings hold a spare
		exchange()
	}
	if n := testing.AllocsPerRun(1000, exchange); n != 0 {
		t.Fatalf("%.2f allocations per exchange, want 0", n)
	}
}
