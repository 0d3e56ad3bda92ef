//go:build !linux || race

package vm

import "sync"

// The arena is one Go allocation here. The race detector does not
// watch mmapped memory, so race builds use this twin to keep heap bytes
// visible to it; like the mapping, an arena is reserved once per VM and
// never moves.
//
// A released arena is kept for the next VM of its size, which zeroes
// only the prefix the last heap carved: a fresh allocation reusing a
// freed span would zero, and so commit, the whole ArenaMax.
var released struct {
	sync.Mutex
	bySize map[uint32][]usedArena
}

type usedArena struct {
	b    []byte
	used uint32
}

func reserveArena(n uint32) ([]byte, error) {
	released.Lock()
	free := released.bySize[n]
	if len(free) == 0 {
		released.Unlock()
		return make([]byte, n), nil
	}
	a := free[len(free)-1]
	released.bySize[n] = free[:len(free)-1]
	released.Unlock()
	clear(a.b[:a.used])
	return a.b, nil
}

func releaseArena(b []byte, used uint32) {
	released.Lock()
	defer released.Unlock()
	if released.bySize == nil {
		released.bySize = make(map[uint32][]usedArena)
	}
	released.bySize[uint32(len(b))] = append(released.bySize[uint32(len(b))], usedArena{b, used})
}
