// Package motor is a reproduction of "Motor: A Virtual Machine for
// High Performance Computing" (Goscinski & Abramson, HPDC 2006): a
// managed virtual machine with a high-performance message-passing
// library integrated directly into the runtime, rather than wrapped
// behind a JNI / P/Invoke boundary.
//
// The package is the public facade over the full system:
//
//   - a per-rank virtual machine (moving two-generation GC, strongly
//     typed object model, bytecode interpreter, masm text assembler);
//   - an MPICH2-style message-passing core (ADI/CH3 device over
//     pluggable shm / sock channels);
//   - the Motor integration: MPI operations with object-model
//     integrity checks, the paper's pinning policy (generation test,
//     deferred pins, conditional pin requests resolved at GC mark
//     time), and the extended object-oriented operations built on a
//     custom serializer with a split representation.
//
// The five-minute tour:
//
//	cfg := motor.Config{Ranks: 2}
//	err := motor.Run(cfg, func(r *motor.Rank) error {
//	    if r.ID() == 0 {
//	        msg, _ := r.NewInt32Array([]int32{1, 2, 3})
//	        return r.Send(msg, 1, 0)
//	    }
//	    buf, _ := r.NewInt32Array(make([]int32, 3))
//	    _, err := r.Recv(buf, 0, 0)
//	    fmt.Println(r.Int32s(buf))
//	    return err
//	})
package motor

import (
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"motor/internal/core"
	"motor/internal/mp"
	"motor/internal/mp/adi"
	"motor/internal/mp/channel"
	"motor/internal/obs"
	"motor/internal/pal"
	"motor/internal/serial"
	"motor/internal/vm"
)

// Re-exported fundamental types. Aliases keep the public API
// self-contained while the implementation lives in internal packages.
type (
	// Ref is a managed object reference on a rank's heap.
	Ref = vm.Ref
	// Kind is a primitive field/element kind.
	Kind = vm.Kind
	// FieldSpec declares one field of a managed class.
	FieldSpec = vm.FieldSpec
	// MethodTable describes a managed type.
	MethodTable = vm.MethodTable
	// Status describes a completed receive.
	Status = mp.Status
	// Value is an interpreter value (for calling masm methods).
	Value = vm.Value
	// PinPolicy selects the transport pinning policy.
	PinPolicy = core.PinPolicy
	// VisitedMode selects the serializer's visited-object structure.
	VisitedMode = serial.VisitedMode
)

// NullRef is the managed null reference.
const NullRef = vm.NullRef

// Field kinds.
const (
	Bool    = vm.KindBool
	Int8    = vm.KindInt8
	Uint8   = vm.KindUint8
	Int16   = vm.KindInt16
	Uint16  = vm.KindUint16
	Char    = vm.KindChar
	Int32   = vm.KindInt32
	Uint32  = vm.KindUint32
	Int64   = vm.KindInt64
	Uint64  = vm.KindUint64
	Float32 = vm.KindFloat32
	Float64 = vm.KindFloat64
	Object  = vm.KindRef
)

// Receive wildcards.
const (
	AnySource = mp.AnySource
	AnyTag    = mp.AnyTag
)

// Pinning policies (see the paper's §4.3/§7.4 and DESIGN.md).
const (
	// PolicyMotor is the paper's pinning policy.
	PolicyMotor = core.PolicyMotor
	// PolicyAlwaysPin pins eagerly per operation (wrapper-style).
	PolicyAlwaysPin = core.PolicyAlwaysPin
)

// Serializer visited-structure modes.
const (
	// VisitedMap, the default, is the constant-time structure the
	// paper names as future work: an epoch-stamped Ref -> id table.
	VisitedMap = serial.VisitedMap
	// VisitedLinear is the paper's linear visited list (degrades at
	// large object counts, Figure 10).
	VisitedLinear = serial.VisitedLinear
)

// VerifyMode controls load-time bytecode verification.
type VerifyMode uint8

// Verification modes. The zero value verifies, so embedders opt out
// explicitly (cmd/motor and cmd/mpstat expose -noverify).
const (
	// VerifyOn statically verifies every module at Load: stack-type
	// abstract interpretation plus the static transferability pass
	// (docs/VERIFIER.md). Rejected modules fail Load with a
	// *bcverify.Error naming method, instruction and source line.
	VerifyOn VerifyMode = iota
	// VerifyOff loads modules unchecked; safety then rests on the
	// interpreter's traps and the engine's dynamic integrity checks.
	// The methods still run on the quickened loop, lowered without the
	// verifier's facts.
	VerifyOff
)

// Config describes a Motor world.
type Config struct {
	// Ranks is the number of processes (default 2).
	Ranks int
	// Channel selects the transport: "shm" (default) or "sock".
	Channel string
	// Policy selects the pinning policy (default PolicyMotor).
	Policy PinPolicy
	// Visited selects the serializer structure (default VisitedMap, the
	// table; VisitedLinear is the paper's list, which Fig. 10 measures).
	Visited VisitedMode
	// YoungSize / ArenaMax size each rank's heap (defaults 1 MiB /
	// 256 MiB). ArenaMax is address space reserved once per rank, not
	// memory: a page is committed when the heap first touches it.
	YoungSize uint32
	ArenaMax  uint32
	// GCWorkers selects each rank's collector policy and mark
	// workers: 1 is the paper's §5.2 policy (whole-block donation,
	// elder never moved), >1 the moving policy (pinned-block
	// segregation, elder compaction) with that many mark workers.
	// 0 defaults to NumCPU clamped to [2,8]. See docs/GC.md.
	GCWorkers int
	// EagerMax is the transport's eager/rendezvous threshold in
	// bytes (default 64 KiB).
	EagerMax int
	// Stdout receives managed console output (default os.Stdout).
	Stdout io.Writer
	// Verify controls load-time bytecode verification (default
	// VerifyOn).
	Verify VerifyMode
	// Platform substitutes a pal.Platform for the sock transport
	// (default: the host platform). Plugging in a fault.Platform here
	// subjects the whole world to a seeded fault plan (see
	// docs/FAULTS.md).
	Platform pal.Platform
	// Trace names a file to receive a Chrome trace_event JSON trace
	// (about:tracing / Perfetto) of the whole run: op-lifecycle spans,
	// pin decisions, ADI requests, channel frames, GC phases and
	// collective steps. Empty disables tracing (MOTOR_TRACE fills it).
	// See docs/OBSERVABILITY.md.
	Trace string
	// AsyncProgress runs a background progress engine per rank: posted
	// operations complete while guest code computes, and sibling
	// threads started by Rank.Go may share the rank. Off by default
	// (inline polling only; MOTOR_PROGRESS fills it). See
	// docs/PROGRESS.md.
	AsyncProgress bool
	// Telemetry, when set to a listen address (":9700", "127.0.0.1:0"),
	// serves live observability over HTTP while the world runs:
	// /metrics (the unified registry as OpenMetrics text, or JSON with
	// ?format=json), /healthz (liveness plus in-flight waits), and the
	// stock /debug/pprof handlers. Empty disables the endpoint
	// (MOTOR_TELEMETRY fills it).
	Telemetry string
	// WatchdogDeadline is the stall watchdog's threshold: a rank stuck
	// in one polling-wait or collective longer than this is diagnosed
	// on stderr (op, peer, device state, last GC, progress liveness)
	// and the flight recorder is dumped. Zero means the default (60s;
	// MOTOR_WATCHDOG fills it); negative disables the watchdog.
	WatchdogDeadline time.Duration
	// NoFlight disables the always-on flight recorder (a small
	// duty-cycle-armed trace ring that runs even without Trace and is
	// dumped on guest traps, transport failures and watchdog fires;
	// MOTOR_FLIGHT fills it). A full Trace session displaces the
	// flight recorder for its duration regardless.
	NoFlight bool
}

// fill applies the defaults, then lets each MOTOR_* environment
// variable fill its field where the caller left the field unset: a
// set field always wins. Outside the benchmark harness it is the only
// reader of the environment. MOTOR_FLIGHT_DIR, the flight recorder's
// dump directory (empty: the OS temp dir), has no field; fill returns it.
func (c *Config) fill() (flightDir string) {
	if c.Ranks == 0 {
		c.Ranks = 2
	}
	if c.Channel == "" {
		c.Channel = "shm"
	}
	oneOf := func(key string, vals ...string) bool { return slices.Contains(vals, os.Getenv(key)) }
	c.AsyncProgress = c.AsyncProgress || oneOf("MOTOR_PROGRESS", "1", "async", "on")
	if c.Trace == "" {
		c.Trace = os.Getenv("MOTOR_TRACE")
	}
	if c.Telemetry == "" {
		c.Telemetry = os.Getenv("MOTOR_TELEMETRY")
	}
	if c.WatchdogDeadline == 0 {
		if oneOf("MOTOR_WATCHDOG", "0", "off", "no") {
			c.WatchdogDeadline = -1
		} else if d, err := time.ParseDuration(os.Getenv("MOTOR_WATCHDOG")); err == nil && d > 0 {
			c.WatchdogDeadline = d
		}
	}
	c.NoFlight = c.NoFlight || oneOf("MOTOR_FLIGHT", "0", "off", "no")
	return os.Getenv("MOTOR_FLIGHT_DIR")
}

// session is the observability one Run or Join holds for its
// lifetime: the full trace it owns, if any, and the flight recorder,
// stall watchdog and telemetry endpoint (serving every rank's stats
// from reg) that close stops last-started first.
type session struct {
	reg       *obs.Registry
	trace     *obs.Tracer
	tracePath string
	stops     []func()
}

// openSession starts what a filled cfg asks for. A failed open
// leaves nothing running.
func openSession(cfg *Config, flightDir string) (*session, error) {
	s := &session{reg: new(obs.Registry), tracePath: cfg.Trace}
	if cfg.Telemetry != "" {
		t, err := obs.ServeTelemetry(cfg.Telemetry, s.reg)
		if err != nil {
			return nil, fmt.Errorf("motor: telemetry: %w", err)
		}
		addr := t.Addr()
		telemetryAddr.Store(addr)
		s.stops = append(s.stops, func() {
			// Clear the address only while it is still this session's.
			telemetryAddr.CompareAndSwap(addr, "")
			_ = t.Close()
		})
	}
	if cfg.Trace != "" {
		// The first session to start a full trace owns it and exports;
		// nested or concurrent sessions trace into the owner's.
		s.trace = obs.Start(obs.Options{})
	}
	// One rule: a session that owns a full trace starts no flight
	// recorder. Every other session asks, and StartFlight's own test
	// refuses while another session's full trace or recorder holds the
	// process; reading obs.Active here instead would race with it.
	if s.trace == nil && !cfg.NoFlight {
		if f := obs.StartFlight(flightDir); f != nil {
			// Duty-cycle arming keeps the recorder inside the <5%
			// always-on budget; out-of-window event sites pay the
			// tracing-disabled cost.
			s.stops = append(s.stops, func() { obs.Stop(f) }, obs.CycleFlight(f, 0, 0))
		}
	}
	if cfg.WatchdogDeadline >= 0 {
		s.stops = append(s.stops, obs.StartWatchdog(obs.WatchdogConfig{Deadline: cfg.WatchdogDeadline}).Stop)
	}
	return s, nil
}

// close stops everything the session started and exports its trace,
// also after a failed run. It returns err, or the export's error when
// err is nil.
func (s *session) close(err error) error {
	for i := len(s.stops) - 1; i >= 0; i-- {
		s.stops[i]()
	}
	if s.trace == nil {
		return err
	}
	obs.Stop(s.trace)
	f, werr := os.Create(s.tracePath)
	if werr == nil {
		werr = s.trace.WriteChromeTrace(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
	}
	if werr != nil && err == nil {
		err = fmt.Errorf("motor: trace: %w", werr)
	}
	return err
}

// telemetryAddr holds the bound address of the most recent live
// telemetry endpoint (":0" configs resolve to a real port).
var telemetryAddr atomic.Value // string

// TelemetryAddr returns the live telemetry endpoint's address from
// the most recent Run or Join in this process, or "" once its session
// has closed (also after a failed Run or Join). Exposed for tests and
// embedders that print the URL.
func TelemetryAddr() string {
	s, _ := telemetryAddr.Load().(string)
	return s
}

// Rank is one process of a Motor world: a virtual machine, its
// message-passing engine, and the managed thread running the caller.
type Rank struct {
	vm     *vm.VM
	engine *core.Engine
	thread *vm.Thread
	world  *mp.World
	cfg    Config
}

// Run builds an in-process world per cfg and executes body once per
// rank, each on its own goroutine, VM and managed thread. It returns
// the first error.
func Run(cfg Config, body func(r *Rank) error) error {
	flightDir := cfg.fill()
	var kind mp.ChannelKind
	switch cfg.Channel {
	case "shm":
		kind = mp.ChannelShm
	case "sock":
		kind = mp.ChannelSock
	default:
		return fmt.Errorf("motor: unknown channel %q", cfg.Channel)
	}
	s, err := openSession(&cfg, flightDir)
	if err != nil {
		return err
	}
	worlds, err := mp.NewLocalWorldsOn(kind, cfg.Ranks, cfg.EagerMax, cfg.Platform)
	if err != nil {
		return s.close(err)
	}
	errc := make(chan error, cfg.Ranks)
	vms := make([]*vm.VM, cfg.Ranks)
	for i, w := range worlds {
		go func(i int, w *mp.World) {
			// The rank reports only after its teardown: until then its
			// progress engine still emits trace events, and the trace
			// is exported once every rank has reported.
			errc <- func() error {
				defer w.Close()
				r := newRank(w, cfg)
				vms[i] = r.vm
				// Live /metrics sees every rank: the registry suffixes
				// same-named groups (engine#1, ...) per rank.
				r.engine.RegisterStats(s.reg)
				// LIFO teardown: the main thread ends first (releasing the
				// execution token), then the progress engine stops (its gated
				// loop needs the token to finish a pass), then the world
				// closes.
				defer r.engine.Close()
				defer r.thread.End()
				return body(r)
			}()
		}(i, w)
	}
	var first error
	for i := 0; i < cfg.Ranks; i++ {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	// Every rank has reported: no peer can still copy into or out of a
	// posted buffer, so the arenas can go.
	for _, v := range vms {
		v.Close()
	}
	return s.close(first)
}

func newRank(w *mp.World, cfg Config) *Rank {
	v := vm.New(vm.Config{
		Name:   fmt.Sprintf("rank%d", w.Rank()),
		Stdout: cfg.Stdout,
		Heap:   vm.HeapConfig{YoungSize: cfg.YoungSize, ArenaMax: cfg.ArenaMax, GCWorkers: cfg.GCWorkers},
	})
	e := core.Attach(v, w,
		core.WithPolicy(cfg.Policy),
		core.WithVisited(cfg.Visited),
		core.WithAsyncProgress(cfg.AsyncProgress))
	return &Rank{vm: v, engine: e, thread: v.StartThread("main"), world: w, cfg: cfg}
}

// Spawn implements dynamic process management (MPI-2; the paper's §9
// names "transparent process management" as Motor's next step). It is
// collective over the world and only available on shm worlds: n child
// ranks join the running fabric, each with a fresh virtual machine
// and engine, and childBody runs once per child on its own goroutine.
// Parents and children share a merged communicator (the result of an
// MPI_Intercomm_merge: parents first, then children), returned as a
// communicator handle usable with every *On operation.
//
// A child's error is the child's to handle — report it to a parent
// through the merged communicator, as separate OS processes would.
func (r *Rank) Spawn(n int, childBody func(child *Rank, merged CommID) error) (CommID, error) {
	var mu sync.Mutex
	var done []*vm.VM
	merged, err := r.world.Spawn(n, func(cw *mp.World, mc *mp.Comm) error {
		child := newRank(cw, r.cfg)
		defer func() {
			// The last child to report closes every child's arena.
			mu.Lock()
			defer mu.Unlock()
			if done = append(done, child.vm); len(done) == n {
				for _, v := range done {
					v.Close()
				}
			}
		}()
		defer child.engine.Close()
		defer child.thread.End()
		mid := child.engine.RegisterComm(mc)
		return childBody(child, mid)
	})
	if err != nil {
		return NullComm, err
	}
	return r.engine.RegisterComm(merged), nil
}

// Serve hosts the rendezvous service for an n-rank multi-process
// world on addr ("host:port") and returns once every rank has joined
// and received the address table. Run it in one process (or
// goroutine); every rank then calls Join with the same address.
func Serve(addr string, n int) error {
	ln, err := pal.Default.Listen(addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	return channel.ServeRoot(ln, n)
}

// Join connects this OS process to a multi-process sock world through
// the rendezvous service at rootAddr, as world rank `rank` of `size`.
// It returns the rank plus a close function. This is the deployment
// path of cmd/motor's -mode rank: one Motor VM per OS process,
// connected over TCP — the paper's sock-channel configuration across
// real process boundaries. Each process exports its own trace, the
// layout cmd/mtrace stitches.
func Join(cfg Config, rootAddr string, rank, size int) (*Rank, func() error, error) {
	flightDir := cfg.fill()
	s, err := openSession(&cfg, flightDir)
	if err != nil {
		return nil, nil, err
	}
	w, err := mp.JoinWorld(rootAddr, rank, size, cfg.EagerMax)
	if err != nil {
		return nil, nil, s.close(err)
	}
	r := newRank(w, cfg)
	r.engine.RegisterStats(s.reg)
	return r, func() error {
		r.thread.End()
		r.engine.Close()
		err := w.Close()
		r.vm.Close()
		return s.close(err)
	}, nil
}

// ID returns this rank's index in the world.
func (r *Rank) ID() int { return r.engine.Comm.Rank() }

// Size returns the world size.
func (r *Rank) Size() int { return r.engine.Comm.Size() }

// WTime returns elapsed wall-clock seconds (MPI_Wtime analogue).
func (r *Rank) WTime() float64 { return float64(time.Now().UnixNano()) / 1e9 }

// --- type & object construction -------------------------------------------

// DeclareClass registers an empty class shell (for self-referential
// types); complete it with CompleteClass.
func (r *Rank) DeclareClass(name string) (*MethodTable, error) { return r.vm.DeclareClass(name) }

// CompleteClass lays out a declared class.
func (r *Rank) CompleteClass(mt *MethodTable, parent *MethodTable, fields []FieldSpec) error {
	return r.vm.CompleteClass(mt, parent, fields)
}

// DefineClass registers a class in one step.
func (r *Rank) DefineClass(name string, fields ...FieldSpec) (*MethodTable, error) {
	return r.vm.NewClass(name, nil, fields)
}

// ArrayType returns the canonical array type for an element shape.
func (r *Rank) ArrayType(elem Kind, elemClass *MethodTable, rank int) *MethodTable {
	return r.vm.ArrayType(elem, elemClass, rank)
}

// New allocates a class instance.
func (r *Rank) New(mt *MethodTable) (Ref, error) { return r.vm.Heap.AllocClass(mt) }

// NewArray allocates a rank-1 array of the element shape.
func (r *Rank) NewArray(elem Kind, length int) (Ref, error) {
	return r.vm.Heap.AllocArray(r.vm.ArrayType(elem, nil, 1), length)
}

// NewObjectArray allocates an array of class references.
func (r *Rank) NewObjectArray(elem *MethodTable, length int) (Ref, error) {
	return r.vm.Heap.AllocArray(r.vm.ArrayType(Object, elem, 1), length)
}

// NewMatrix allocates a true rank-2 rectangular array (rows×cols).
func (r *Rank) NewMatrix(elem Kind, rows, cols int) (Ref, error) {
	return r.vm.Heap.AllocMultiDim(r.vm.ArrayType(elem, nil, 2), []int{rows, cols})
}

// NewInt32Array allocates and fills an int32 array.
func (r *Rank) NewInt32Array(vals []int32) (Ref, error) { return r.vm.Heap.NewInt32Array(vals) }

// NewFloat64Array allocates and fills a float64 array.
func (r *Rank) NewFloat64Array(vals []float64) (Ref, error) { return r.vm.Heap.NewFloat64Array(vals) }

// NewUint8Array allocates and fills a byte array.
func (r *Rank) NewUint8Array(vals []byte) (Ref, error) { return r.vm.Heap.NewUint8Array(vals) }

// Int32s copies out an int32 array.
func (r *Rank) Int32s(ref Ref) []int32 { return r.vm.Heap.Int32Slice(ref) }

// Float64s copies out a float64 array.
func (r *Rank) Float64s(ref Ref) []float64 { return r.vm.Heap.Float64Slice(ref) }

// Uint8s copies out a byte array.
func (r *Rank) Uint8s(ref Ref) []byte { return r.vm.Heap.Uint8Slice(ref) }

// Len returns an array's total element count.
func (r *Rank) Len(ref Ref) int { return r.vm.Heap.Length(ref) }

// GetField / SetField access class fields as raw bits.
func (r *Rank) GetField(obj Ref, mt *MethodTable, name string) (uint64, bool) {
	f := mt.FieldByName(name)
	if f == nil {
		return 0, false
	}
	bits, _ := r.vm.Heap.GetField(obj, f)
	return bits, true
}

// SetField writes a class field from raw bits (or a Ref for
// reference fields).
func (r *Rank) SetField(obj Ref, mt *MethodTable, name string, bits uint64) bool {
	f := mt.FieldByName(name)
	if f == nil {
		return false
	}
	r.vm.Heap.SetField(obj, f, bits)
	return true
}

// GetElem / SetElem access array elements as raw bits.
func (r *Rank) GetElem(arr Ref, i int) uint64 { return r.vm.Heap.GetElem(arr, i) }

// SetElem writes array element i from raw bits.
func (r *Rank) SetElem(arr Ref, i int, bits uint64) { r.vm.Heap.SetElem(arr, i, bits) }

// BitsFromFloat64 converts a float64 to the raw bits used by field
// and element accessors.
func BitsFromFloat64(f float64) uint64 { return vm.BitsFromF64(f) }

// Float64FromBits converts raw bits back to a float64.
func Float64FromBits(b uint64) float64 { return vm.F64FromBits(b) }

// Protect registers the given Go variables as GC roots until the
// returned release function is called. Any managed reference held in
// a plain Go variable across an allocating or communicating call MUST
// be protected this way (the FCall protected-pointer discipline of
// the paper's §5.1).
func (r *Rank) Protect(refs ...*Ref) (release func()) { return r.vm.Protect(refs...) }

// --- message passing (regular operations, §4.2.1) ---------------------------

// Send transports a whole object (blocking). The object must contain
// no references (or be an array of simple types).
func (r *Rank) Send(obj Ref, dest, tag int) error { return r.engine.Send(r.thread, obj, dest, tag) }

// Ssend is the synchronous-mode Send.
func (r *Rank) Ssend(obj Ref, dest, tag int) error { return r.engine.Ssend(r.thread, obj, dest, tag) }

// SendRange transports array elements [offset, offset+count).
func (r *Rank) SendRange(arr Ref, offset, count, dest, tag int) error {
	return r.engine.SendRange(r.thread, arr, offset, count, dest, tag)
}

// Recv receives into a whole object (blocking).
func (r *Rank) Recv(obj Ref, source, tag int) (Status, error) {
	return r.engine.Recv(r.thread, obj, source, tag)
}

// RecvRange receives into array elements [offset, offset+count).
func (r *Rank) RecvRange(arr Ref, offset, count, source, tag int) (Status, error) {
	return r.engine.RecvRange(r.thread, arr, offset, count, source, tag)
}

// Isend starts an immediate send; pair with Wait or Test.
func (r *Rank) Isend(obj Ref, dest, tag int) (int32, error) {
	return r.engine.Isend(r.thread, obj, dest, tag)
}

// Irecv starts an immediate receive.
func (r *Rank) Irecv(obj Ref, source, tag int) (int32, error) {
	return r.engine.Irecv(r.thread, obj, source, tag)
}

// Wait blocks until the request completes.
func (r *Rank) Wait(req int32) (Status, error) { return r.engine.Wait(r.thread, req) }

// Test polls the request once.
func (r *Rank) Test(req int32) (bool, Status, error) { return r.engine.Test(r.thread, req) }

// Barrier synchronizes all ranks.
func (r *Rank) Barrier() error { return r.engine.Barrier(r.thread) }

// Bcast broadcasts the root's object contents into every rank's
// equally-sized object.
func (r *Rank) Bcast(obj Ref, root int) error { return r.engine.Bcast(r.thread, obj, root) }

// Scatter splits the root's simple array equally into each rank's
// recv array.
func (r *Rank) Scatter(send, recv Ref, root int) error {
	return r.engine.Scatter(r.thread, send, recv, root)
}

// Gather collects each rank's simple array into the root's recv
// array.
func (r *Rank) Gather(send, recv Ref, root int) error {
	return r.engine.Gather(r.thread, send, recv, root)
}

// Allgather collects every rank's simple array into every rank's
// recv array.
func (r *Rank) Allgather(send, recv Ref) error {
	return r.engine.Allgather(r.thread, send, recv)
}

// Alltoall exchanges equal chunks of every rank's simple send array:
// this rank's chunk j lands in rank j's recv array at this rank's
// chunk index.
func (r *Rank) Alltoall(send, recv Ref) error {
	return r.engine.Alltoall(r.thread, send, recv)
}

// Sendrecv sends sendObj to dest while receiving into recvObj from
// source — the deadlock-free combined exchange.
func (r *Rank) Sendrecv(sendObj Ref, dest, sendTag int, recvObj Ref, source, recvTag int) (Status, error) {
	return r.engine.Sendrecv(r.thread, sendObj, dest, sendTag, recvObj, source, recvTag)
}

// Reduction operators.
type Op = mp.Op

// Reduction operator values.
const (
	OpSum  = mp.OpSum
	OpProd = mp.OpProd
	OpMin  = mp.OpMin
	OpMax  = mp.OpMax
)

// Reduce combines each rank's simple array elementwise into the
// root's recv array (datatype inferred from the element kind; uint8,
// int32, int64 and float64 arrays are supported).
func (r *Rank) Reduce(send, recv Ref, op Op, root int) error {
	return r.engine.Reduce(r.thread, send, recv, op, root)
}

// Allreduce combines into every rank's recv array.
func (r *Rank) Allreduce(send, recv Ref, op Op) error {
	return r.engine.Allreduce(r.thread, send, recv, op)
}

// --- communicator management -------------------------------------------------

// CommID is a managed communicator handle; WorldComm (0) addresses
// the world communicator and NullComm (-1) is returned to callers
// excluded from a Split.
type CommID = int32

// Communicator handle constants.
const (
	WorldComm = core.WorldComm
	NullComm  = core.NullComm
)

// Dup duplicates a communicator (collective over its members).
func (r *Rank) Dup(id CommID) (CommID, error) { return r.engine.CommDup(r.thread, id) }

// Split partitions a communicator by color, ordering members by key
// (collective). A negative color yields NullComm.
func (r *Rank) Split(id CommID, color, key int) (CommID, error) {
	return r.engine.CommSplit(r.thread, id, color, key)
}

// CommRank returns the caller's rank within the communicator.
func (r *Rank) CommRank(id CommID) (int, error) { return r.engine.CommRank(id) }

// CommSize returns a communicator's size.
func (r *Rank) CommSize(id CommID) (int, error) { return r.engine.CommSize(id) }

// CommFree releases a communicator handle.
func (r *Rank) CommFree(id CommID) error { return r.engine.CommFree(id) }

// SendOn / RecvOn / BarrierOn / BcastOn / ReduceOn address an
// explicit communicator.
func (r *Rank) SendOn(id CommID, obj Ref, dest, tag int) error {
	return r.engine.SendOn(r.thread, id, obj, dest, tag)
}

// RecvOn receives over an explicit communicator.
func (r *Rank) RecvOn(id CommID, obj Ref, source, tag int) (Status, error) {
	return r.engine.RecvOn(r.thread, id, obj, source, tag)
}

// BarrierOn synchronizes an explicit communicator.
func (r *Rank) BarrierOn(id CommID) error { return r.engine.BarrierOn(r.thread, id) }

// BcastOn broadcasts over an explicit communicator.
func (r *Rank) BcastOn(id CommID, obj Ref, root int) error {
	return r.engine.BcastOn(r.thread, id, obj, root)
}

// ReduceOn reduces over an explicit communicator.
func (r *Rank) ReduceOn(id CommID, send, recv Ref, op Op, root int) error {
	return r.engine.ReduceOn(r.thread, id, send, recv, op, root)
}

// AllreduceOn combines into every member's recv array over an
// explicit communicator.
func (r *Rank) AllreduceOn(id CommID, send, recv Ref, op Op) error {
	return r.engine.AllreduceOn(r.thread, id, send, recv, op)
}

// AllgatherOn gathers over an explicit communicator.
func (r *Rank) AllgatherOn(id CommID, send, recv Ref) error {
	return r.engine.AllgatherOn(r.thread, id, send, recv)
}

// AlltoallOn exchanges over an explicit communicator.
func (r *Rank) AlltoallOn(id CommID, send, recv Ref) error {
	return r.engine.AlltoallOn(r.thread, id, send, recv)
}

// --- extended object-oriented operations (§4.2.2) ----------------------------

// OSend transports an object tree (Transportable-annotated references
// are followed; other references travel as null).
func (r *Rank) OSend(obj Ref, dest, tag int) error { return r.engine.OSend(r.thread, obj, dest, tag) }

// ORecv receives an object tree, reconstructed on this rank's heap.
func (r *Rank) ORecv(source, tag int) (Ref, Status, error) {
	return r.engine.ORecv(r.thread, source, tag)
}

// OBcast broadcasts an object tree from root.
func (r *Rank) OBcast(obj Ref, root int) (Ref, error) { return r.engine.OBcast(r.thread, obj, root) }

// OScatter splits the root's object array across ranks (split
// representation, §7.5); every rank receives its sub-array.
func (r *Rank) OScatter(arr Ref, root int) (Ref, error) {
	return r.engine.OScatter(r.thread, arr, root)
}

// OGather reassembles per-rank object arrays into one array at root.
func (r *Rank) OGather(arr Ref, root int) (Ref, error) {
	return r.engine.OGather(r.thread, arr, root)
}

// --- managed programs ---------------------------------------------------------

// Load assembles a masm module into the rank's VM and returns its
// main method (nil if the module has none). Unless the world was
// configured with VerifyOff, every method is statically verified
// before it becomes callable: ill-typed or ill-formed bytecode fails
// Load with a *bcverify.Error naming the method, instruction and masm
// source line, and methods whose MPI buffer arguments are provably
// integrity-safe skip the engine's dynamic §4.2.1 check at run time.
// A rejected module is unregistered again in full — none of its
// classes, globals or (unverified) methods remain reachable, so a
// failed Load may simply be retried with corrected source.
//
// Every method is then lowered onto the quickened dispatch loop: a
// verified one with the verifier's type facts, an unverified one
// without (docs/QUICKEN.md). Verification verdicts are memoized
// process-wide by module content hash, so sibling ranks loading the
// same source skip the verifier fixpoint.
func (r *Rank) Load(masmSource string) (*vm.Method, error) {
	mark := r.vm.Mark()
	mod, err := r.vm.AssembleModule(masmSource)
	if err != nil {
		return nil, err
	}
	if r.cfg.Verify == VerifyOn {
		if err := r.engine.VerifyModuleCached(masmSource, mod.Methods); err != nil {
			// Assembly already registered the module's classes, globals
			// and methods on the VM; unwind them so nothing rejected
			// stays reachable (a later module could otherwise call the
			// unverified methods by index).
			r.vm.RollbackRegistry(mark)
			return nil, err
		}
	}
	r.engine.QuickenModule(mod.Methods)
	return mod.Main, nil
}

// VerifyStats returns load-time verification counters for this rank.
func (r *Rank) VerifyStats() core.VerifyStats { return r.engine.Verify.Snapshot() }

// QuickenStats returns load-time quickening and verdict-cache
// counters for this rank.
func (r *Rank) QuickenStats() core.QuickenStats { return r.engine.Quicken.Snapshot() }

// Call executes a managed method on this rank's thread.
func (r *Rank) Call(m *vm.Method, args ...Value) (Value, error) { return r.thread.Call(m, args...) }

// --- introspection --------------------------------------------------------------

// GC forces a collection (full when full is true).
func (r *Rank) GC(full bool) {
	if full {
		r.thread.CollectFull()
	} else {
		r.thread.CollectYoung()
	}
}

// GCStats returns collector and pinning counters (a race-safe
// snapshot).
func (r *Rank) GCStats() vm.GCStats { return r.vm.Heap.Stats.Snapshot() }

// MPStats returns message-passing engine counters (a race-safe
// snapshot; see core.Stats.Snapshot).
func (r *Rank) MPStats() core.Stats { return r.engine.Stats.Snapshot() }

// StatsSnapshot aggregates every subsystem this rank can see —
// engine, ADI device, collective layer, GC, transport — into one
// versioned obs snapshot, with latency histograms when a trace
// session is active. Render it with obs.WriteMetricsJSON or
// obs.WriteMetricsText.
func (r *Rank) StatsSnapshot() obs.Snapshot {
	reg := new(obs.Registry)
	r.engine.RegisterStats(reg)
	return reg.Snapshot()
}

// RegisterStats adds this rank's stats sources to a shared registry —
// the multi-rank form of StatsSnapshot (same-named groups from later
// ranks get a #N suffix).
func (r *Rank) RegisterStats(reg *obs.Registry) { r.engine.RegisterStats(reg) }

// CollStats returns the collective-layer counters: operations run,
// algorithm chosen per call, payload bytes moved and the peak number
// of transfers in flight (see mp.CollStats).
func (r *Rank) CollStats() mp.CollStats { return r.engine.Comm.CollStats() }

// SetCollAlgo forces collective algorithm choices for this rank, for
// tests and re-measurement: "op=algo[,op=algo]", e.g.
// "allreduce=ring,bcast=binomial" (mp.Comm.SetCollAlgo). Must be
// applied identically on every rank.
func (r *Rank) SetCollAlgo(spec string) error { return r.engine.Comm.SetCollAlgo(spec) }

// DeviceStats returns the ADI device counters, including the
// transport-failure classes (TransportErrors, PeersLost), as a
// race-safe snapshot.
func (r *Rank) DeviceStats() adi.DeviceStats { return r.world.Dev.StatsSnapshot() }

// ProgressStats returns the background progress engine's counters
// (all zero when Config.AsyncProgress is off).
func (r *Rank) ProgressStats() mp.ProgressStats { return r.engine.ProgressStats() }

// AsyncProgress reports whether this rank runs the background
// progress engine.
func (r *Rank) AsyncProgress() bool { return r.engine.AsyncProgress() }

// TransportStats returns the sock channel's retry/poison counters.
// ok is false when the transport does not expose them (shm).
func (r *Rank) TransportStats() (channel.TransportStats, bool) {
	if src, ok := r.world.Dev.Channel().(channel.StatsSource); ok {
		return src.TransportStats(), true
	}
	return channel.TransportStats{}, false
}

// Go runs body on a new managed thread of this rank's VM and returns
// a join function that blocks until body finishes and reports its
// error. The *Rank body receives is bound to that thread and shares
// everything else with r — VM, heap, engine, communicators, world and
// config — so every Rank method works from the worker. Requires
// Config.AsyncProgress: the device and engine are then safe for
// concurrent use from multiple threads. Every spawned thread must be
// joined before the rank's body returns. Collectives remain
// MPI-semantics: at most one collective per communicator at a time
// across all of a rank's threads.
func (r *Rank) Go(name string, body func(*Rank) error) (join func() error) {
	if name == "" {
		name = "worker"
	}
	errc := make(chan error, 1)
	go func() {
		w := *r
		w.thread = r.vm.StartThread(name)
		defer w.thread.End()
		errc <- body(&w)
	}()
	return func() error {
		var err error
		// Parked join: release the execution token while waiting so the
		// worker (and the progress engine) can run.
		r.thread.Park(func() { err = <-errc })
		return err
	}
}

// Engine exposes the underlying integration engine (advanced use).
func (r *Rank) Engine() *core.Engine { return r.engine }

// VM exposes the underlying virtual machine (advanced use).
func (r *Rank) VM() *vm.VM { return r.vm }

// Thread exposes the rank's managed thread (advanced use).
func (r *Rank) Thread() *vm.Thread { return r.thread }
