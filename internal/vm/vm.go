package vm

import (
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
)

// Config configures a VM instance.
type Config struct {
	Heap HeapConfig
	// Name labels the VM in diagnostics (usually "rank N").
	Name string
	// Stdout receives console output from managed programs; defaults
	// to os.Stdout.
	Stdout io.Writer
}

// VM is one managed runtime instance: a heap, a type registry, static
// (global) storage, registered internal calls, and a set of managed
// threads coordinated through cooperative safepoints. In a Motor
// world each MPI rank owns exactly one VM, as each SSCLI process did
// in the paper.
type VM struct {
	Name string
	Heap *Heap

	// Handles provides stable, GC-updated references for Go-side
	// holders of managed objects.
	Handles *HandleTable

	types      []*MethodTable
	typeByName map[string]*MethodTable
	arrayTypes map[arrayKey]*MethodTable

	// ObjectMT is the root of the class hierarchy (System.Object).
	ObjectMT *MethodTable

	methods []*Method

	globals     []Value
	globalNames map[string]int

	internals     []InternalFunc
	internalNames map[string]int

	// extraRoots lets embedders (the message-passing core, the
	// serializer buffer stack) contribute GC roots.
	extraRoots []RootProvider

	// typeGen counts registry events that invalidate externally held
	// method-table references (today: Load rollback unregistering
	// types). The serializer's per-peer type-table caches compare it
	// to decide when to resynchronize.
	typeGen uint64

	// gcHooks run at the start of every collection's mark phase,
	// before roots are traced. The Motor core uses one to reconcile
	// transport state (paper §7.4).
	gcHooks []func()

	// traceLane is the obs lane (world rank) this VM's events are
	// recorded under; set by the message-passing core at attach time,
	// 0 for VMs outside a world.
	traceLane int

	// execMu is the managed-execution token: held by the one thread
	// currently running managed code; handed over at a poll point
	// when someone waits for it. Acquire it through lockExec.
	execMu sync.Mutex //motorlint:lockorder 5 vm-exec
	// execWanted counts goroutines blocked in lockExec; a poll point
	// reads it and touches execMu only when it is non-zero. execGated
	// counts the ExecRun progress passes among them.
	execWanted atomic.Int32
	execGated  atomic.Int32
	// mu guards the thread registry.
	mu      sync.Mutex
	threads map[*Thread]struct{}
	// rootThreads is visitAllRoots' snapshot of threads, reused by
	// every collection (collections never overlap).
	rootThreads []*Thread

	out io.Writer
}

func (v *VM) stdout() io.Writer {
	if v.out != nil {
		return v.out
	}
	return os.Stdout
}

type arrayKey struct {
	elem Kind
	mt   *MethodTable
	rank int
}

// RootProvider enumerates managed references held outside the heap.
// The visitor must be applied to every slot; the returned Ref replaces
// the slot's value (the collector forwards moved objects this way).
type RootProvider interface {
	VisitRoots(visit func(Ref) Ref)
}

// RootFunc adapts a function to RootProvider. RootFunc values are not
// comparable and therefore cannot be removed again; transient holders
// should use RefRoots instead.
type RootFunc func(visit func(Ref) Ref)

// VisitRoots implements RootProvider.
func (f RootFunc) VisitRoots(visit func(Ref) Ref) { f(visit) }

// RefRoots is a removable RootProvider over a slice of references —
// the standard way for Go-side code to keep a working set of managed
// objects alive and up to date across collections.
type RefRoots struct {
	Refs []Ref
}

// VisitRoots implements RootProvider.
func (g *RefRoots) VisitRoots(visit func(Ref) Ref) {
	for i, r := range g.Refs {
		if r != NullRef {
			g.Refs[i] = visit(r)
		}
	}
}

// refPtrs is the RootProvider behind Protect.
type refPtrs []*Ref

func (p *refPtrs) VisitRoots(visit func(Ref) Ref) {
	for _, r := range *p {
		if *r != NullRef {
			*r = visit(*r)
		}
	}
}

// Protect registers Go variables as GC roots, forwarded in place, until
// the returned release runs: the way Go code (an embedder, a test)
// keeps references it holds in its own variables current across calls
// that may collect. An FCall roots its references with
// Thread.PushFrame instead, which allocates nothing.
func (v *VM) Protect(refs ...*Ref) (release func()) {
	p := refPtrs(refs)
	v.AddRootProvider(&p)
	return func() { v.RemoveRootProvider(&p) }
}

// New creates a VM with the root object type registered.
func New(cfg Config) *VM {
	v := &VM{
		Name:          cfg.Name,
		typeByName:    make(map[string]*MethodTable),
		arrayTypes:    make(map[arrayKey]*MethodTable),
		globalNames:   make(map[string]int),
		internalNames: make(map[string]int),
		threads:       make(map[*Thread]struct{}),
		out:           cfg.Stdout,
	}
	v.Handles = newHandleTable()
	v.Heap = newHeap(v, cfg.Heap)
	v.ObjectMT = v.defineType(&MethodTable{Name: "object", Kind: TKClass})
	registerBuiltins(v)
	return v
}

// liveArenas counts reserved arenas not yet released by Close.
var liveArenas atomic.Int64

// LiveArenas reports how many VMs hold an arena reservation that
// Close has not released.
func LiveArenas() int64 { return liveArenas.Load() }

// Close releases the VM's arena reservation; it is idempotent. Every
// view into the heap (DataBytes, a posted transfer buffer) dies with
// it, so a world closes its VMs only after every rank has reported: a
// peer may still copy into or out of a posted buffer until then.
func (v *VM) Close() {
	h := v.Heap
	if h.arena == nil {
		return
	}
	releaseArena(h.arena, h.brk)
	h.arena, h.mem = nil, nil
	liveArenas.Add(-1)
}

func (v *VM) defineType(mt *MethodTable) *MethodTable {
	mt.Index = len(v.types)
	v.types = append(v.types, mt)
	if mt.Name != "" {
		v.typeByName[mt.Name] = mt
	}
	return mt
}

// FieldSpec declares one field of a class under construction.
type FieldSpec struct {
	Name          string
	Kind          Kind
	Type          *MethodTable // declared class for KindRef fields (nil = object)
	Transportable bool
}

// DeclareClass registers an empty class shell so that mutually or
// self-referential field types can be resolved before layout. The
// shell must be completed with CompleteClass before instantiation.
func (v *VM) DeclareClass(name string) (*MethodTable, error) {
	if _, dup := v.typeByName[name]; dup {
		return nil, fmt.Errorf("vm: duplicate type %q", name)
	}
	mt := &MethodTable{Name: name, Kind: TKClass}
	return v.defineType(mt), nil
}

// CompleteClass lays out a declared shell: fields are placed after
// any inherited fields, naturally aligned. The parent (nil means the
// root object type) must already be completed.
func (v *VM) CompleteClass(mt *MethodTable, parent *MethodTable, fields []FieldSpec) error {
	if parent == nil {
		parent = v.ObjectMT
	}
	mt.Parent = parent
	mt.Fields = append(mt.Fields, parent.Fields...)
	mt.VTable = append(mt.VTable, parent.VTable...)
	off := parent.InstanceSize
	for _, fs := range fields {
		if mt.FieldByName(fs.Name) != nil {
			return fmt.Errorf("vm: duplicate field %s.%s", mt.Name, fs.Name)
		}
		sz := uint32(fs.Kind.Size())
		if sz == 0 {
			return fmt.Errorf("vm: field %s.%s has void kind", mt.Name, fs.Name)
		}
		off = alignTo(off, sz)
		mt.Fields = append(mt.Fields, makeFieldDesc(fs.Name, off, fs.Kind, fs.Transportable, fs.Type))
		off += sz
	}
	mt.InstanceSize = align8(off)
	mt.RefOffsets = nil
	for i := range mt.Fields {
		if mt.Fields[i].IsRef() {
			mt.RefOffsets = append(mt.RefOffsets, mt.Fields[i].Offset())
		}
	}
	sort.Slice(mt.RefOffsets, func(i, j int) bool { return mt.RefOffsets[i] < mt.RefOffsets[j] })
	return nil
}

// NewClass registers and lays out a class type in one step (for
// types without forward references).
func (v *VM) NewClass(name string, parent *MethodTable, fields []FieldSpec) (*MethodTable, error) {
	mt, err := v.DeclareClass(name)
	if err != nil {
		return nil, err
	}
	if err := v.CompleteClass(mt, parent, fields); err != nil {
		return nil, err
	}
	return mt, nil
}

// MustNewClass is NewClass that panics on error (test/setup paths).
func (v *VM) MustNewClass(name string, parent *MethodTable, fields []FieldSpec) *MethodTable {
	mt, err := v.NewClass(name, parent, fields)
	if err != nil {
		panic(err)
	}
	return mt
}

func alignTo(off, a uint32) uint32 {
	if a > 8 {
		a = 8
	}
	return (off + a - 1) &^ (a - 1)
}

// ArrayType returns the canonical array type for the element shape,
// creating it on first use. For object arrays pass KindRef and the
// element class (nil for arrays of the root object type).
func (v *VM) ArrayType(elem Kind, elemMT *MethodTable, rank int) *MethodTable {
	if rank < 1 {
		rank = 1
	}
	key := arrayKey{elem, elemMT, rank}
	if mt, ok := v.arrayTypes[key]; ok {
		return mt
	}
	name := arrayTypeName(elem, elemMT, rank)
	mt := &MethodTable{Name: name, Kind: TKArray, Elem: elem, ElemMT: elemMT, Rank: rank}
	v.arrayTypes[key] = mt
	return v.defineType(mt)
}

// TypeByName resolves a registered type name.
func (v *VM) TypeByName(name string) (*MethodTable, bool) {
	mt, ok := v.typeByName[name]
	return mt, ok
}

// TypeByIndex returns the method table with registry index i.
func (v *VM) TypeByIndex(i int) (*MethodTable, bool) {
	if i < 0 || i >= len(v.types) {
		return nil, false
	}
	return v.types[i], true
}

// NumTypes reports the registry size.
func (v *VM) NumTypes() int { return len(v.types) }

// TypeGen reports the current type-registry generation. It changes
// whenever previously registered types become invalid (Load rollback);
// callers holding *MethodTable-keyed caches must flush when it moves.
func (v *VM) TypeGen() uint64 { return v.typeGen }

// AddMethod attaches a method to a type (or to the module when owner
// is nil) and assigns its global index and virtual slot.
func (v *VM) AddMethod(owner *MethodTable, m *Method) *Method {
	m.Owner = owner
	m.Index = len(v.methods)
	v.methods = append(v.methods, m)
	if owner != nil {
		owner.Methods = append(owner.Methods, m)
		if m.Virtual {
			syncVTable(owner)
			slot := -1
			for p := owner.Parent; p != nil && slot < 0; p = p.Parent {
				if pm := p.MethodByName(m.Name); pm != nil && pm.Virtual {
					slot = pm.VSlot
				}
			}
			if slot < 0 {
				slot = len(owner.VTable)
				owner.VTable = append(owner.VTable, m)
			} else {
				owner.VTable[slot] = m
			}
			m.VSlot = slot
		}
	}
	return m
}

// syncVTable brings a type's vtable up to date with its ancestors'
// slots. Base-class virtual methods must be registered before
// subclass overrides (the assembler's declaration order guarantees
// this for masm programs).
func syncVTable(mt *MethodTable) {
	if mt.Parent == nil {
		return
	}
	syncVTable(mt.Parent)
	for len(mt.VTable) < len(mt.Parent.VTable) {
		mt.VTable = append(mt.VTable, mt.Parent.VTable[len(mt.VTable)])
	}
}

// lookupVSlot resolves a virtual slot against a receiver type whose
// own vtable may be shorter than the slot (no overrides registered
// after ancestors grew): the nearest ancestor covering the slot holds
// the inherited implementation.
func lookupVSlot(mt *MethodTable, slot int) *Method {
	for t := mt; t != nil; t = t.Parent {
		if slot < len(t.VTable) && t.VTable[slot] != nil {
			return t.VTable[slot]
		}
	}
	return nil
}

// MethodByIndex resolves a call operand.
func (v *VM) MethodByIndex(i int) (*Method, bool) {
	if i < 0 || i >= len(v.methods) {
		return nil, false
	}
	return v.methods[i], true
}

// NumMethods reports the number of registered methods (the operand
// space of call instructions).
func (v *VM) NumMethods() int { return len(v.methods) }

// MethodByName finds a module-level method by name.
func (v *VM) MethodByName(name string) (*Method, bool) {
	for _, m := range v.methods {
		if m.Owner == nil && m.Name == name {
			return m, true
		}
	}
	return nil, false
}

// --- registry rollback ------------------------------------------------------

// RegistryMark captures the sizes of the VM's append-only registries
// (types, methods, globals, internal calls) so a failed module load
// can be undone. Take one with Mark before assembling; pass it to
// RollbackRegistry if assembly or verification rejects the module.
type RegistryMark struct {
	types, methods, globals, internals int
}

// Mark snapshots the registries.
func (v *VM) Mark() RegistryMark {
	return RegistryMark{
		types:     len(v.types),
		methods:   len(v.methods),
		globals:   len(v.globals),
		internals: len(v.internals),
	}
}

// RollbackRegistry removes every type, method, global and internal
// call registered after mark, so a rejected module leaves nothing
// callable behind — a later module's call operands cannot reach its
// unverified methods, and its class and global names become free
// again. Only artifacts registered since the mark are touched; methods
// attached to pre-existing types are detached and their vtable slots
// restored to the inherited implementation.
func (v *VM) RollbackRegistry(mark RegistryMark) {
	if len(v.types) > mark.types {
		// Unregistering types invalidates anything keyed on method
		// tables outside the VM (the serializer's per-peer type-table
		// caches); bump the generation so they resynchronize.
		v.typeGen++
	}
	for i := len(v.methods) - 1; i >= mark.methods; i-- {
		m := v.methods[i]
		o := m.Owner
		if o == nil || o.Index >= mark.types {
			continue // owner is being removed wholesale (or module-level)
		}
		for j := len(o.Methods) - 1; j >= 0; j-- {
			if o.Methods[j] == m {
				o.Methods = append(o.Methods[:j], o.Methods[j+1:]...)
				break
			}
		}
		if m.Virtual && m.VSlot < len(o.VTable) && o.VTable[m.VSlot] == m {
			var inherited *Method
			if o.Parent != nil {
				inherited = lookupVSlot(o.Parent, m.VSlot)
			}
			switch {
			case inherited != nil:
				o.VTable[m.VSlot] = inherited
			case m.VSlot == len(o.VTable)-1:
				o.VTable = o.VTable[:m.VSlot]
			default:
				o.VTable[m.VSlot] = nil
			}
		}
	}
	v.methods = v.methods[:mark.methods]

	for _, mt := range v.types[mark.types:] {
		if mt.Name != "" {
			delete(v.typeByName, mt.Name)
		}
	}
	for key, mt := range v.arrayTypes {
		if mt.Index >= mark.types {
			delete(v.arrayTypes, key)
		}
	}
	v.types = v.types[:mark.types]

	for name, i := range v.globalNames {
		if i >= mark.globals {
			delete(v.globalNames, name)
		}
	}
	v.globals = v.globals[:mark.globals]

	for name, i := range v.internalNames {
		if i >= mark.internals {
			delete(v.internalNames, name)
		}
	}
	v.internals = v.internals[:mark.internals]
}

// --- globals (statics) ----------------------------------------------------

// AddGlobal registers a named static slot and returns its index.
func (v *VM) AddGlobal(name string) int {
	if i, ok := v.globalNames[name]; ok {
		return i
	}
	i := len(v.globals)
	v.globals = append(v.globals, Value{})
	v.globalNames[name] = i
	return i
}

// NumGlobals reports the number of registered static slots (the
// operand space of ldsfld/stsfld, used by the verifier).
func (v *VM) NumGlobals() int { return len(v.globals) }

// GlobalNames returns the registered static slot names in index order.
// Core's module verdict cache folds them into its registry fingerprint.
func (v *VM) GlobalNames() []string {
	out := make([]string, len(v.globals))
	for name, i := range v.globalNames {
		out[i] = name
	}
	return out
}

// GlobalIndex resolves a static name.
func (v *VM) GlobalIndex(name string) (int, bool) {
	i, ok := v.globalNames[name]
	return i, ok
}

// GetGlobal reads static slot i.
func (v *VM) GetGlobal(i int) Value { return v.globals[i] }

// SetGlobal writes static slot i.
func (v *VM) SetGlobal(i int, val Value) { v.globals[i] = val }

// --- roots and hooks --------------------------------------------------------

// AddRootProvider registers an additional source of GC roots.
func (v *VM) AddRootProvider(p RootProvider) { v.extraRoots = append(v.extraRoots, p) }

// RemoveRootProvider unregisters a provider previously added with
// AddRootProvider (matched by identity; the provider must be of a
// comparable type such as a pointer — use RefRoots, not RootFunc).
// Transient holders of managed references — the deserializer while it
// builds an object graph, for example — register themselves for their
// lifetime only.
func (v *VM) RemoveRootProvider(p RootProvider) {
	if !reflect.TypeOf(p).Comparable() {
		panic("vm: RemoveRootProvider requires a comparable provider (use *RefRoots, not RootFunc)")
	}
	for i, q := range v.extraRoots {
		if reflect.TypeOf(q).Comparable() && q == p {
			v.extraRoots = append(v.extraRoots[:i], v.extraRoots[i+1:]...)
			return
		}
	}
}

// AddGCHook registers a function run at the start of every
// collection, before marking. The Motor message-passing core uses it
// to advance transport progress bookkeeping so conditional pin
// requests observe fresh completion status.
func (v *VM) AddGCHook(f func()) { v.gcHooks = append(v.gcHooks, f) }

// SetTraceLane assigns the obs lane (world rank) for this VM's GC
// trace events.
func (v *VM) SetTraceLane(rank int) { v.traceLane = rank }

// --- internal calls (FCalls) -------------------------------------------------

// InternalFunc is the Go implementation of an internal call. It runs
// on the calling managed thread; args are the operands popped from
// the evaluation stack (in declaration order). Any managed references
// the implementation holds across a potential GC point must live in a
// protected Frame (see Thread.PushFrame), mirroring the protected
// object pointers SSCLI FCalls must declare (paper §5.1).
//
// args is a window of the caller's operand stack, not a copy: it is
// valid only until Fn returns, when the caller pushes the result over
// it. An implementation must not keep args (or a subslice) past its
// return; copy what it needs.
type InternalFunc struct {
	Name   string
	NArgs  int
	HasRet bool
	Fn     func(t *Thread, args []Value) (Value, error)
}

// RegisterInternal adds an FCall to the registry, replacing any
// existing registration with the same name.
func (v *VM) RegisterInternal(f InternalFunc) int {
	if i, ok := v.internalNames[f.Name]; ok {
		v.internals[i] = f
		return i
	}
	i := len(v.internals)
	v.internals = append(v.internals, f)
	v.internalNames[f.Name] = i
	return i
}

// InternalIndex resolves an FCall name to its operand index.
func (v *VM) InternalIndex(name string) (int, bool) {
	i, ok := v.internalNames[name]
	return i, ok
}

// InternalByIndex returns the FCall with the given operand index.
func (v *VM) InternalByIndex(i int) (*InternalFunc, bool) {
	if i < 0 || i >= len(v.internals) {
		return nil, false
	}
	return &v.internals[i], true
}
