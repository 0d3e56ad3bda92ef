package mp

import (
	"fmt"

	"motor/internal/mp/adi"
	"motor/internal/mp/channel"
	"motor/internal/pal"
)

// World is one rank's entry point to a process group: its device and
// its world communicator. In the Motor architecture each rank's
// virtual machine owns exactly one World.
type World struct {
	rank int
	size int

	Dev  *adi.Device
	Comm *Comm

	// fabric is non-nil for shm worlds and enables dynamic process
	// management (Spawn).
	fabric *channel.ShmFabric
}

// worldContext is the context id of every world communicator.
const worldContext = 0

// Rank returns this process's world rank.
func (w *World) Rank() int { return w.rank }

// Size returns the world size at creation time.
func (w *World) Size() int { return w.size }

// Close tears down the transport.
func (w *World) Close() error { return w.Dev.Channel().Close() }

// ChannelKind selects a transport for world construction.
type ChannelKind string

// Supported transports.
const (
	// ChannelShm wires ranks through in-process shared-memory rings.
	ChannelShm ChannelKind = "shm"
	// ChannelSock wires ranks through loopback TCP connections — the
	// configuration of the paper's evaluation.
	ChannelSock ChannelKind = "sock"
)

func worldFromChannel(ch channel.Channel, size int, eagerMax int, fabric *channel.ShmFabric) *World {
	dev := adi.NewDevice(ch, eagerMax)
	w := &World{rank: ch.Rank(), size: size, Dev: dev, fabric: fabric}
	ranks := make([]int, size)
	for i := range ranks {
		ranks[i] = i
	}
	w.Comm = newComm(dev, worldContext, ranks, w.rank, nil)
	return w
}

// NewLocalWorlds constructs an n-rank world inside this process and
// returns one World per rank. Rank i's World must only be used from
// the goroutine driving rank i.
func NewLocalWorlds(kind ChannelKind, n int, eagerMax int) ([]*World, error) {
	return NewLocalWorldsOn(kind, n, eagerMax, nil)
}

// NewLocalWorldsOn is NewLocalWorlds with an explicit platform for
// the sock transport (nil = the host platform). A fault-injecting
// platform plugged in here subjects the whole world to its plan; for
// per-rank plans use NewSockWorldsOn.
func NewLocalWorldsOn(kind ChannelKind, n int, eagerMax int, plat pal.Platform) ([]*World, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: world size %d", errInvalid, n)
	}
	switch kind {
	case ChannelShm:
		fabric := channel.NewShmFabric(n)
		worlds := make([]*World, n)
		for r := 0; r < n; r++ {
			worlds[r] = worldFromChannel(fabric.Endpoint(r), n, eagerMax, fabric)
		}
		return worlds, nil
	case ChannelSock:
		plats := make([]pal.Platform, n)
		for i := range plats {
			plats[i] = plat
		}
		return NewSockWorldsOn(plats, n, eagerMax, channel.DefaultRetryPolicy)
	default:
		return nil, fmt.Errorf("%w: unknown channel kind %q", errInvalid, kind)
	}
}

// NewSockWorldsOn builds an n-rank loopback sock world with one
// platform per rank (nil entries use the host platform) and an
// explicit bootstrap retry policy. This is the chaos-testing harness
// entry point: each rank carries its own seeded fault plan while the
// rendezvous service stays on the reliable host platform.
func NewSockWorldsOn(plats []pal.Platform, n int, eagerMax int, rp channel.RetryPolicy) ([]*World, error) {
	for i := range plats {
		if plats[i] == nil {
			plats[i] = pal.Default
		}
	}
	chans, err := channel.NewSockGroupLocalOn(plats, n, rp)
	if err != nil {
		return nil, err
	}
	worlds := make([]*World, n)
	for r := 0; r < n; r++ {
		worlds[r] = worldFromChannel(chans[r], n, eagerMax, nil)
	}
	return worlds, nil
}

// JoinWorld joins a multi-process sock world through the rendezvous
// service at rootAddr (see channel.ServeRoot for hosting it). Every
// process of the world calls JoinWorld with its rank.
func JoinWorld(rootAddr string, rank, size, eagerMax int) (*World, error) {
	ch, err := channel.Bootstrap(pal.Default, rootAddr, rank, size)
	if err != nil {
		return nil, err
	}
	return worldFromChannel(ch, size, eagerMax, nil), nil
}

// RunLocal is the harness most examples and tests use: it builds an
// n-rank in-process world and runs body once per rank, each on its
// own goroutine, returning the first error.
func RunLocal(kind ChannelKind, n int, eagerMax int, body func(w *World) error) error {
	worlds, err := NewLocalWorlds(kind, n, eagerMax)
	if err != nil {
		return err
	}
	errc := make(chan error, n)
	for _, w := range worlds {
		go func(w *World) {
			defer w.Close()
			errc <- body(w)
		}(w)
	}
	var first error
	for i := 0; i < n; i++ {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	return first
}
