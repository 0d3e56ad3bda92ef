package vm

import "fmt"

// TypeKind distinguishes the shapes of managed types.
type TypeKind uint8

const (
	// TKClass is a reference type with named fields.
	TKClass TypeKind = iota
	// TKArray is a single- or multi-dimensional array type. Unlike
	// Java's arrays-of-arrays, rank-n arrays are a single object with
	// a true rectangular layout, as in the CLI (paper §3).
	TKArray
)

// FieldDesc describes one instance field. Mirroring the SSCLI, the
// descriptor packs offset, kind and flags into a single bit field and
// — crucially for the paper — carries the Transportable bit directly,
// so the Motor serializer never has to consult slow reflection
// metadata (§7.5).
type FieldDesc struct {
	Name string
	// bits layout:
	//   [0:28)  byte offset of the field within instance data
	//   [28:33) kind
	//   bit 33  transportable
	bits uint64
	// DeclaredType is the statically declared class of a reference
	// field, or nil for fields declared as the root object type.
	DeclaredType *MethodTable
}

const (
	fdOffsetBits        = 28
	fdOffsetMask        = (1 << fdOffsetBits) - 1
	fdKindShift         = fdOffsetBits
	fdKindBits          = 5
	fdKindMask          = (1 << fdKindBits) - 1
	fdTransportableFlag = 1 << (fdKindShift + fdKindBits)
)

func makeFieldDesc(name string, offset uint32, kind Kind, transportable bool, declared *MethodTable) FieldDesc {
	bits := uint64(offset)&fdOffsetMask | (uint64(kind)&fdKindMask)<<fdKindShift
	if transportable {
		bits |= fdTransportableFlag
	}
	return FieldDesc{Name: name, bits: bits, DeclaredType: declared}
}

// Offset returns the field's byte offset within the instance data.
func (f *FieldDesc) Offset() uint32 { return uint32(f.bits & fdOffsetMask) }

// Kind returns the field's primitive kind (KindRef for references).
func (f *FieldDesc) Kind() Kind { return Kind((f.bits >> fdKindShift) & fdKindMask) }

// Transportable reports whether the field carries the Transportable
// attribute: reference fields so marked are propagated by the extended
// object-oriented transport operations (paper §4.2.2, Fig. 5).
func (f *FieldDesc) Transportable() bool { return f.bits&fdTransportableFlag != 0 }

// IsRef reports whether the field holds an object reference.
func (f *FieldDesc) IsRef() bool { return f.Kind() == KindRef }

// Method is a piece of executable bytecode attached to a type (or
// standalone when Owner is nil). builder.go and textasm.go produce Code;
// quicken.go lowers it for the dispatch loop in quickrun.go.
type Method struct {
	Name  string
	Owner *MethodTable // nil for module-level (static) functions

	NArgs   int // number of arguments, including the receiver if virtual
	NLocals int
	HasRet  bool
	Virtual bool
	VSlot   int // slot in the owner's VTable when Virtual

	// RetKind describes the declared result when HasRet: a scalar
	// Kind, or KindRef with RetClass naming the declared class (nil =
	// the root object type or an untyped array). Methods built
	// directly through CodeBuilder carry KindVoid with HasRet set,
	// meaning "value of unknown type" — the verifier then accepts any
	// returned category.
	RetKind  Kind
	RetClass *MethodTable

	Code     []byte
	MaxStack int

	// Lines maps bytecode offsets to masm source lines (sorted by PC,
	// recorded by the text assembler). Empty for hand-built methods.
	Lines []LineEntry

	// Verified is set once the bytecode verifier has accepted the
	// method; TransportVerified additionally records that every value
	// this method passes to an MPI buffer parameter is provably
	// transferable, letting the engine skip the dynamic object-model
	// check (paper §4.2.1) while this method's frame is on top.
	Verified          bool
	TransportVerified bool

	// Facts holds per-instruction verifier facts (exact receiver
	// types, statically checked stores), keyed by bytecode offset.
	// Populated by bcverify on success; consumed by the quickening
	// pass. Nil for unverified methods.
	Facts map[int]InstFact

	// quick is the quickened body compiled by VM.QuickenMethod; nil
	// until the method is lowered (at Load, or on its first activation).
	quick *quickBody

	// Index is the method's position in the assembly's method list,
	// the operand space of call instructions.
	Index int
}

// Quickened reports whether the method carries a quickened body.
func (m *Method) Quickened() bool { return m.quick != nil }

// LineEntry associates the instruction at PC (and all following
// instructions up to the next entry) with a 1-based source line.
type LineEntry struct {
	PC   int
	Line int
}

// LineForPC returns the source line covering the given bytecode
// offset, or 0 when the method has no line table.
func (m *Method) LineForPC(pc int) int {
	line := 0
	for _, e := range m.Lines {
		if e.PC > pc {
			break
		}
		line = e.Line
	}
	return line
}

// FullName returns "Type.Method" or just the method name for
// module-level functions.
func (m *Method) FullName() string {
	if m.Owner != nil {
		return m.Owner.Name + "." + m.Name
	}
	return m.Name
}

// MethodTable is the runtime descriptor of a managed type — the
// "gateway to commonly accessed type information" (paper §5.3). Every
// heap object's header points at one.
type MethodTable struct {
	Index int // position in the VM's type registry; stored in headers
	Name  string
	Kind  TypeKind

	Parent *MethodTable // base class; nil for roots and arrays

	// Class layout.
	InstanceSize uint32      // bytes of instance data (excludes header)
	Fields       []FieldDesc // flattened, including inherited fields
	RefOffsets   []uint32    // offsets of all reference fields (GC map)

	// Array layout.
	Elem   Kind         // element kind (KindRef for object arrays)
	ElemMT *MethodTable // element class for object arrays; nil otherwise
	Rank   int          // 1 for vectors; >1 for true multidimensional

	// Dispatch.
	Methods []*Method
	VTable  []*Method
}

// IsArray reports whether the type is an array type.
func (mt *MethodTable) IsArray() bool { return mt.Kind == TKArray }

// IsSimpleArray reports whether the type is an array of unmanaged
// scalars — the only array shape the regular MPI operations accept.
func (mt *MethodTable) IsSimpleArray() bool {
	return mt.Kind == TKArray && mt.Elem.Simple()
}

// HasRefFields reports whether instances contain object references.
// The regular MPI bindings reject such types to protect the integrity
// of the object model (paper §4.2.1).
func (mt *MethodTable) HasRefFields() bool {
	if mt.Kind == TKArray {
		return mt.Elem == KindRef
	}
	return len(mt.RefOffsets) > 0
}

// ElemSize returns the byte size of one array element.
func (mt *MethodTable) ElemSize() int {
	if mt.Kind != TKArray {
		return 0
	}
	return mt.Elem.Size()
}

// FieldByName locates a field descriptor. It returns nil when absent.
func (mt *MethodTable) FieldByName(name string) *FieldDesc {
	for i := range mt.Fields {
		if mt.Fields[i].Name == name {
			return &mt.Fields[i]
		}
	}
	return nil
}

// FieldIndex returns the position of the named field or -1.
func (mt *MethodTable) FieldIndex(name string) int {
	for i := range mt.Fields {
		if mt.Fields[i].Name == name {
			return i
		}
	}
	return -1
}

// MethodByName locates a method declared on this type (not inherited).
func (mt *MethodTable) MethodByName(name string) *Method {
	for _, m := range mt.Methods {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// IsSubclassOf walks the parent chain.
func (mt *MethodTable) IsSubclassOf(base *MethodTable) bool {
	for t := mt; t != nil; t = t.Parent {
		if t == base {
			return true
		}
	}
	return false
}

// String renders the type name for diagnostics.
func (mt *MethodTable) String() string {
	switch {
	case mt == nil:
		return "<nil type>"
	case mt.Kind == TKArray && mt.Elem == KindRef && mt.ElemMT != nil:
		return mt.ElemMT.Name + "[]"
	case mt.Kind == TKArray:
		return fmt.Sprintf("%s[rank=%d]", mt.Elem, mt.Rank)
	default:
		return mt.Name
	}
}

// TransportableRefs returns the descriptors of reference fields marked
// Transportable, in declaration order. The Motor serializer follows
// exactly these when flattening an object tree.
func (mt *MethodTable) TransportableRefs() []*FieldDesc {
	var out []*FieldDesc
	for i := range mt.Fields {
		f := &mt.Fields[i]
		if f.IsRef() && f.Transportable() {
			out = append(out, f)
		}
	}
	return out
}
