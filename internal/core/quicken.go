package core

import (
	"crypto/sha256"
	"encoding/binary"
	"hash/fnv"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"motor/internal/vm"
)

// Load-path acceleration: quickening of loaded modules plus a
// process-global module verdict cache. The cache addresses the ranks
// problem — in a Motor world every rank's VM loads the same masm
// source, and without memoization each one pays the full abstract-
// interpretation fixpoint. Verification verdicts (MaxStack, transport
// safety, per-instruction facts) are pointer-free, so they can be
// shared across VMs keyed by module content hash plus a registry
// fingerprint; quickened bodies themselves are pointer-laden and are
// recompiled per VM from the cached facts, which is a cheap linear
// pass. Folding vm.TypeGen into the fingerprint makes any registry
// rollback (PR 5's epoch machinery) a conservative cache miss.

// QuickenStats aggregates load-time quickening activity on this
// engine (obs group "quicken"). Uint64 fields so the obs registry
// flattens them like every other counter group.
type QuickenStats struct {
	Methods           uint64 // methods quickened
	InstsIn           uint64 // bytecode instructions consumed
	InstsOut          uint64 // quickened instructions emitted
	Fused             uint64 // superinstructions formed
	Devirted          uint64 // callvirt sites bound to exact implementations
	VerifyCacheHits   uint64 // module loads that skipped the verifier fixpoint
	VerifyCacheMisses uint64
	ElapsedNs         uint64 // wall time spent quickening
}

// Snapshot returns a race-safe copy of the counters.
func (s *QuickenStats) Snapshot() QuickenStats {
	return QuickenStats{
		Methods:           atomic.LoadUint64(&s.Methods),
		InstsIn:           atomic.LoadUint64(&s.InstsIn),
		InstsOut:          atomic.LoadUint64(&s.InstsOut),
		Fused:             atomic.LoadUint64(&s.Fused),
		Devirted:          atomic.LoadUint64(&s.Devirted),
		VerifyCacheHits:   atomic.LoadUint64(&s.VerifyCacheHits),
		VerifyCacheMisses: atomic.LoadUint64(&s.VerifyCacheMisses),
		ElapsedNs:         atomic.LoadUint64(&s.ElapsedNs),
	}
}

// --- module verdict cache ----------------------------------------------------

// methodVerdict is the pointer-free verification result of one method,
// valid for any VM whose registry fingerprint matches the key.
type methodVerdict struct {
	MaxStack          int
	TransportVerified bool
	Facts             map[int]vm.InstFact // shared read-only across VMs
}

type moduleVerdict struct {
	methods []methodVerdict
}

// verdictKey is sha256(source) plus the registry fingerprint.
type verdictKey [sha256.Size + 8]byte

// maxVerdicts bounds the process-global cache; eviction is arbitrary
// (map order), which is fine for a cache of successful load verdicts.
const maxVerdicts = 256

var verdictCache = struct {
	sync.Mutex //motorlint:lockorder 10 engine
	m          map[verdictKey]*moduleVerdict
}{m: make(map[verdictKey]*moduleVerdict)}

func makeVerdictKey(src string, fp uint64) verdictKey {
	var k verdictKey
	sum := sha256.Sum256([]byte(src))
	copy(k[:], sum[:])
	binary.LittleEndian.PutUint64(k[sha256.Size:], fp)
	return k
}

func loadVerdict(k verdictKey) *moduleVerdict {
	verdictCache.Lock()
	defer verdictCache.Unlock()
	return verdictCache.m[k]
}

func storeVerdict(k verdictKey, v *moduleVerdict) {
	verdictCache.Lock()
	defer verdictCache.Unlock()
	if len(verdictCache.m) >= maxVerdicts {
		for old := range verdictCache.m {
			delete(verdictCache.m, old)
			break
		}
	}
	verdictCache.m[k] = v
}

// FlushVerdictCache empties the process-global module verdict cache
// (tests).
func FlushVerdictCache() {
	verdictCache.Lock()
	defer verdictCache.Unlock()
	verdictCache.m = make(map[verdictKey]*moduleVerdict)
}

// registryFingerprint hashes everything a cached verdict depends on:
// every registered type's identity and layout, every method signature
// and index, global and internal-call names — and the registry
// generation, so a rollback (which may free indices for reuse) can
// never produce a stale hit. Two VMs that performed the same
// registrations in the same order (the N-identical-ranks case) hash
// equal; any divergence is a conservative miss.
func registryFingerprint(v *vm.VM) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	wu := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	wb := func(b bool) {
		if b {
			wu(1)
		} else {
			wu(0)
		}
	}
	ws := func(s string) {
		io.WriteString(h, s)
		h.Write([]byte{0})
	}
	tidx := func(mt *vm.MethodTable) uint64 {
		if mt == nil {
			return 0
		}
		return uint64(mt.Index) + 1
	}

	wu(v.TypeGen())
	wu(uint64(v.NumTypes()))
	for i := 0; i < v.NumTypes(); i++ {
		mt, _ := v.TypeByIndex(i)
		ws(mt.Name)
		wu(uint64(mt.Kind))
		wu(tidx(mt.Parent))
		wu(uint64(mt.InstanceSize))
		wu(uint64(len(mt.Fields)))
		for j := range mt.Fields {
			f := &mt.Fields[j]
			ws(f.Name)
			wu(uint64(f.Offset()))
			wu(uint64(f.Kind()))
			wb(f.Transportable())
			wu(tidx(f.DeclaredType))
		}
		wu(uint64(mt.Elem))
		wu(tidx(mt.ElemMT))
		wu(uint64(mt.Rank))
		wu(uint64(len(mt.VTable)))
	}

	wu(uint64(v.NumMethods()))
	for i := 0; i < v.NumMethods(); i++ {
		m, _ := v.MethodByIndex(i)
		ws(m.FullName())
		wu(tidx(m.Owner))
		wu(uint64(m.NArgs))
		wu(uint64(m.NLocals))
		wb(m.HasRet)
		wb(m.Virtual)
		wu(uint64(m.VSlot))
		wu(uint64(m.RetKind))
		wu(tidx(m.RetClass))
		wu(uint64(len(m.Code)))
		h.Write(m.Code)
	}

	names := v.GlobalNames()
	wu(uint64(len(names)))
	for _, n := range names {
		ws(n)
	}

	for i := 0; ; i++ {
		fn, ok := v.InternalByIndex(i)
		if !ok {
			wu(uint64(i))
			break
		}
		ws(fn.Name)
		wu(uint64(fn.NArgs))
		wb(fn.HasRet)
	}

	return h.Sum64()
}

// VerifyModuleCached is VerifyModule behind the process-global verdict
// cache: when a module with identical source was already verified
// against a registry with an identical fingerprint (typically by a
// sibling rank's VM), the abstract-interpretation fixpoint is skipped
// and the cached per-method verdicts — MaxStack, transport safety,
// quickening facts — are applied directly. Called after assembly, so
// the fingerprint covers the module's own freshly registered types,
// which deterministic assembly makes reproducible across VMs.
func (e *Engine) VerifyModuleCached(src string, methods []*vm.Method) error {
	key := makeVerdictKey(src, registryFingerprint(e.VM))
	if verdict := loadVerdict(key); verdict != nil && len(verdict.methods) == len(methods) {
		for i, m := range methods {
			mv := verdict.methods[i]
			m.Verified = true
			m.TransportVerified = mv.TransportVerified
			if mv.MaxStack > m.MaxStack {
				m.MaxStack = mv.MaxStack
			}
			m.Facts = mv.Facts
		}
		bump(&e.Quicken.VerifyCacheHits, 1)
		return nil
	}
	bump(&e.Quicken.VerifyCacheMisses, 1)
	if err := e.VerifyModule(methods); err != nil {
		return err
	}
	verdict := &moduleVerdict{methods: make([]methodVerdict, len(methods))}
	for i, m := range methods {
		verdict.methods[i] = methodVerdict{
			MaxStack:          m.MaxStack,
			TransportVerified: m.TransportVerified,
			Facts:             m.Facts,
		}
	}
	storeVerdict(key, verdict)
	return nil
}

// QuickenModule lowers every method of a freshly loaded module onto
// the quickened loop: verified methods with their facts, unverified ones
// without. Counters land in e.Quicken (obs group "quicken").
func (e *Engine) QuickenModule(methods []*vm.Method) {
	start := time.Now()
	for _, m := range methods {
		info := e.VM.QuickenMethod(m)
		bump(&e.Quicken.Methods, 1)
		bump(&e.Quicken.InstsIn, uint64(info.In))
		bump(&e.Quicken.InstsOut, uint64(info.Out))
		bump(&e.Quicken.Fused, uint64(info.Fused))
		bump(&e.Quicken.Devirted, uint64(info.Devirted))
	}
	bump(&e.Quicken.ElapsedNs, uint64(time.Since(start).Nanoseconds()))
}
