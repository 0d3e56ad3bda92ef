package vm

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// The text assembler: a small portable assembly format (".masm") so
// Motor programs can be shipped as text and executed unchanged on any
// host — the compile-once-run-anywhere deployment story of the paper.
//
// Syntax overview (';' starts a comment):
//
//	.class LinkedArray
//	  .field transportable int32[] array
//	  .field transportable LinkedArray next
//	  .field LinkedArray next2
//	.end
//
//	.global counter
//
//	.method main (0) void
//	  .locals 2
//	  ldc.i4 42
//	  stloc 0
//	loop:
//	  ldloc 0
//	  brfalse done
//	  ldloc 0  ldc.i4 1  sub  stloc 0
//	  br loop
//	done:
//	  ret
//	.end
//
// Field types are primitive kind names, class names, or either with a
// trailing "[]" (an array-typed reference field). The "transportable"
// modifier sets the Transportable bit used by the extended object-
// oriented transport operations (paper §4.2.2).

// AsmError reports an assembly failure with its line number.
type AsmError struct {
	Line int
	Msg  string
}

// Error implements the error interface.
func (e *AsmError) Error() string { return fmt.Sprintf("masm: line %d: %s", e.Line, e.Msg) }

type asmLine struct {
	num    int
	tokens []string
}

type asmFieldDecl struct {
	name          string
	typeName      string
	transportable bool
	line          int
}

type asmClassDecl struct {
	name    string
	parent  string
	fields  []asmFieldDecl
	line    int
	methods []*asmMethodDecl
}

type asmMethodDecl struct {
	name    string
	owner   string // class name, "" for module-level
	nargs   int
	nlocals int
	hasRet  bool
	retType string
	virtual bool
	body    []asmLine
	line    int
}

// Module is the result of assembling one masm source unit: every
// method it registered (in declaration order, module-level first,
// then per-class) and the entry method when one is named "main".
// Load-time verification runs over Methods.
type Module struct {
	Methods []*Method
	Main    *Method
}

// Assemble parses masm source and registers its classes, globals and
// methods on the VM. It returns the module's entry method (named
// "main") when present.
func (v *VM) Assemble(src string) (*Method, error) {
	mod, err := v.AssembleModule(src)
	if err != nil {
		return nil, err
	}
	return mod.Main, nil
}

// AssembleModule is Assemble returning the full module, so callers
// (Rank.Load, cmd/motor -check) can hand every method to the
// verifier, not just main. A failed assembly rolls the VM's registries
// back to their pre-call state, so a rejected source unit leaves no
// half-registered classes, globals or methods behind.
func (v *VM) AssembleModule(src string) (mod *Module, err error) {
	mark := v.Mark()
	defer func() {
		if err != nil {
			v.RollbackRegistry(mark)
		}
	}()
	lines, err := lexMasm(src)
	if err != nil {
		return nil, err
	}

	var classes []*asmClassDecl
	var methods []*asmMethodDecl
	var globals []string

	// Pass 1: structure.
	i := 0
	for i < len(lines) {
		ln := lines[i]
		switch ln.tokens[0] {
		case ".class":
			cd, next, err := parseClass(lines, i)
			if err != nil {
				return nil, err
			}
			classes = append(classes, cd)
			i = next
		case ".global":
			if len(ln.tokens) != 2 {
				return nil, &AsmError{ln.num, ".global expects a name"}
			}
			globals = append(globals, ln.tokens[1])
			i++
		case ".method":
			md, next, err := parseMethod(lines, i, "")
			if err != nil {
				return nil, err
			}
			methods = append(methods, md)
			i = next
		default:
			return nil, &AsmError{ln.num, "expected .class, .global or .method, got " + ln.tokens[0]}
		}
	}

	// Register class shells first so fields may reference any class in
	// the module (including self-references like LinkedArray.next),
	// then lay out each class in declaration order (parents first).
	shells := make(map[string]*MethodTable, len(classes))
	for _, cd := range classes {
		mt, err := v.DeclareClass(cd.name)
		if err != nil {
			return nil, &AsmError{cd.line, err.Error()}
		}
		shells[cd.name] = mt
	}
	for _, cd := range classes {
		var parent *MethodTable
		if cd.parent != "" {
			p, ok := v.TypeByName(cd.parent)
			if !ok {
				return nil, &AsmError{cd.line, "unknown parent class " + cd.parent}
			}
			parent = p
		}
		specs := make([]FieldSpec, 0, len(cd.fields))
		for _, fd := range cd.fields {
			spec, err := v.resolveFieldType(fd)
			if err != nil {
				return nil, err
			}
			specs = append(specs, spec)
		}
		if err := v.CompleteClass(shells[cd.name], parent, specs); err != nil {
			return nil, &AsmError{cd.line, err.Error()}
		}
		methods = append(methods, cd.methods...)
	}

	for _, g := range globals {
		v.AddGlobal(g)
	}

	// Register method shells so call operands resolve regardless of
	// declaration order.
	built := make([]*Method, len(methods))
	for idx, md := range methods {
		m := &Method{
			Name:    md.name,
			NArgs:   md.nargs,
			NLocals: md.nlocals,
			HasRet:  md.hasRet,
			Virtual: md.virtual,
		}
		if md.hasRet {
			kind, class, err := v.resolveRetType(md)
			if err != nil {
				return nil, err
			}
			m.RetKind, m.RetClass = kind, class
		}
		var owner *MethodTable
		if md.owner != "" {
			o, ok := v.TypeByName(md.owner)
			if !ok {
				return nil, &AsmError{md.line, "unknown class " + md.owner}
			}
			owner = o
		}
		v.AddMethod(owner, m)
		built[idx] = m
	}

	// Pass 2: bodies.
	for idx, md := range methods {
		code, lineTab, err := v.assembleBody(md)
		if err != nil {
			return nil, err
		}
		built[idx].Code = code
		built[idx].Lines = lineTab
	}

	mod = &Module{Methods: built}
	if m, ok := v.MethodByName("main"); ok {
		mod.Main = m
	}
	return mod, nil
}

// resolveRetType maps a .method return-type token to a Kind (and the
// declared class for reference results). Called after class shells are
// registered, so methods may return module classes and arrays.
func (v *VM) resolveRetType(md *asmMethodDecl) (Kind, *MethodTable, error) {
	tn := md.retType
	if k, ok := KindByName(tn); ok && k != KindVoid {
		return k, nil, nil
	}
	if tn == "object" {
		return KindRef, nil, nil
	}
	mt, err := v.resolveTypeToken(tn, md.line)
	if err != nil {
		return KindVoid, nil, &AsmError{md.line, "unknown return type " + tn}
	}
	return KindRef, mt, nil
}

func lexMasm(src string) ([]asmLine, error) {
	var out []asmLine
	sc := bufio.NewScanner(strings.NewReader(src))
	sc.Buffer(nil, 1<<20) // grows from 4 KiB as a long line needs it
	num := 0
	for sc.Scan() {
		num++
		line := sc.Text()
		if j := strings.IndexByte(line, ';'); j >= 0 {
			line = line[:j]
		}
		tokens := strings.Fields(line)
		if len(tokens) == 0 {
			continue
		}
		out = append(out, asmLine{num: num, tokens: tokens})
	}
	return out, sc.Err()
}

func parseClass(lines []asmLine, i int) (*asmClassDecl, int, error) {
	ln := lines[i]
	cd := &asmClassDecl{line: ln.num}
	switch len(ln.tokens) {
	case 2:
		cd.name = ln.tokens[1]
	case 4:
		if ln.tokens[2] != "extends" {
			return nil, 0, &AsmError{ln.num, ".class NAME [extends PARENT]"}
		}
		cd.name, cd.parent = ln.tokens[1], ln.tokens[3]
	default:
		return nil, 0, &AsmError{ln.num, ".class NAME [extends PARENT]"}
	}
	i++
	for i < len(lines) {
		ln = lines[i]
		switch ln.tokens[0] {
		case ".end":
			return cd, i + 1, nil
		case ".field":
			toks := ln.tokens[1:]
			fd := asmFieldDecl{line: ln.num}
			if len(toks) > 0 && toks[0] == "transportable" {
				fd.transportable = true
				toks = toks[1:]
			}
			if len(toks) != 2 {
				return nil, 0, &AsmError{ln.num, ".field [transportable] TYPE NAME"}
			}
			fd.typeName, fd.name = toks[0], toks[1]
			cd.fields = append(cd.fields, fd)
			i++
		case ".method":
			md, next, err := parseMethod(lines, i, cd.name)
			if err != nil {
				return nil, 0, err
			}
			cd.methods = append(cd.methods, md)
			i = next
		default:
			return nil, 0, &AsmError{ln.num, "unexpected " + ln.tokens[0] + " in .class"}
		}
	}
	return nil, 0, &AsmError{cd.line, ".class without .end"}
}

func parseMethod(lines []asmLine, i int, owner string) (*asmMethodDecl, int, error) {
	ln := lines[i]
	toks := ln.tokens[1:]
	md := &asmMethodDecl{line: ln.num, owner: owner}
	if len(toks) > 0 && toks[0] == "virtual" {
		md.virtual = true
		toks = toks[1:]
	}
	if len(toks) != 3 {
		return nil, 0, &AsmError{ln.num, ".method [virtual] NAME (NARGS) RETTYPE"}
	}
	md.name = toks[0]
	argStr := strings.Trim(toks[1], "()")
	n, err := strconv.Atoi(argStr)
	if err != nil || n < 0 || n > maxFrameSlots {
		return nil, 0, &AsmError{ln.num, "bad argument count " + toks[1]}
	}
	md.nargs = n
	if md.virtual {
		md.nargs++ // implicit receiver
	}
	md.retType = toks[2]
	md.hasRet = toks[2] != "void"
	i++
	for i < len(lines) {
		ln = lines[i]
		if ln.tokens[0] == ".end" {
			return md, i + 1, nil
		}
		if ln.tokens[0] == ".locals" {
			if len(ln.tokens) != 2 {
				return nil, 0, &AsmError{ln.num, ".locals N"}
			}
			nl, err := strconv.Atoi(ln.tokens[1])
			if err != nil || nl < 0 || nl > maxFrameSlots {
				return nil, 0, &AsmError{ln.num, "bad locals count"}
			}
			md.nlocals = nl
			i++
			continue
		}
		md.body = append(md.body, ln)
		i++
	}
	return nil, 0, &AsmError{md.line, ".method without .end"}
}

// resolveFieldType maps a masm type token to a FieldSpec.
func (v *VM) resolveFieldType(fd asmFieldDecl) (FieldSpec, error) {
	spec := FieldSpec{Name: fd.name, Transportable: fd.transportable}
	tn := fd.typeName
	if strings.ContainsRune(tn, '[') {
		mt, err := v.ResolveTypeName(tn)
		if err != nil {
			return spec, &AsmError{fd.line, err.Error()}
		}
		spec.Kind = KindRef
		spec.Type = mt
		return spec, nil
	}
	if k, ok := KindByName(tn); ok && k != KindVoid {
		spec.Kind = k
		return spec, nil
	}
	if tn == "object" {
		spec.Kind = KindRef
		return spec, nil
	}
	if mt, ok := v.TypeByName(tn); ok {
		spec.Kind = KindRef
		spec.Type = mt
		return spec, nil
	}
	return spec, &AsmError{fd.line, "unknown field type " + tn}
}

// resolveTypeToken maps a masm type token (for newobj/newarr) to a
// method table. Array suffixes follow the CLI convention: T[] is a
// vector, T[,] a rank-2 rectangular array, T[][] a jagged array.
func (v *VM) resolveTypeToken(tok string, line int) (*MethodTable, error) {
	if strings.ContainsRune(tok, '[') {
		mt, err := v.ResolveTypeName(tok)
		if err != nil {
			return nil, &AsmError{line, err.Error()}
		}
		return mt, nil
	}
	if mt, ok := v.TypeByName(tok); ok {
		return mt, nil
	}
	return nil, &AsmError{line, "unknown type " + tok}
}

// maxFrameSlots bounds .locals and argument counts: frame slots are
// addressed by u16 operands, and the bound keeps hostile modules from
// demanding unbounded frame allocations before verification.
const maxFrameSlots = 0xFFFF

func (v *VM) assembleBody(md *asmMethodDecl) ([]byte, []LineEntry, error) {
	b := NewCodeBuilder()
	for _, ln := range md.body {
		toks := ln.tokens
		b.MarkLine(ln.num)
		// Allow several instructions per line; labels end with ':'.
		for len(toks) > 0 {
			tok := toks[0]
			toks = toks[1:]
			if strings.HasSuffix(tok, ":") {
				b.Label(strings.TrimSuffix(tok, ":"))
				continue
			}
			op, ok := opByName[tok]
			if !ok {
				return nil, nil, &AsmError{ln.num, "unknown instruction " + tok}
			}
			need := operandCount(op)
			if len(toks) < need {
				return nil, nil, &AsmError{ln.num, tok + " missing operand"}
			}
			var operand string
			if need == 1 {
				operand = toks[0]
				toks = toks[1:]
			}
			if err := v.emit(b, op, operand, ln.num); err != nil {
				return nil, nil, err
			}
		}
	}
	if b.err != nil {
		return nil, nil, &AsmError{md.line, b.err.Error()}
	}
	for _, fx := range b.fixups {
		if _, ok := b.labels[fx.label]; !ok {
			return nil, nil, &AsmError{md.line, "undefined label " + fx.label}
		}
	}
	m := b.Build(md.name, md.nargs, md.nlocals, md.hasRet)
	return m.Code, m.Lines, nil
}

func operandCount(op Op) int {
	if opTable[op].width == wNone {
		return 0
	}
	return 1
}

func (v *VM) emit(b *CodeBuilder, op Op, operand string, line int) error {
	switch op {
	case OpLdcI4:
		n, err := strconv.ParseInt(operand, 0, 32)
		if err != nil {
			return &AsmError{line, "bad int32 " + operand}
		}
		b.LdcI4(int32(n))
	case OpLdcI8:
		n, err := strconv.ParseInt(operand, 0, 64)
		if err != nil {
			return &AsmError{line, "bad int64 " + operand}
		}
		b.LdcI8(n)
	case OpLdcR8:
		f, err := strconv.ParseFloat(operand, 64)
		if err != nil {
			return &AsmError{line, "bad float " + operand}
		}
		b.LdcR8(f)
	case OpLdLoc, OpStLoc, OpLdArg, OpStArg:
		n, err := strconv.Atoi(operand)
		if err != nil || n < 0 {
			return &AsmError{line, "bad slot index " + operand}
		}
		b.U16(op, n)
	case OpBr, OpBrTrue, OpBrFalse:
		b.branch(op, operand)
	case OpCall, OpCallVirt:
		m, err := v.resolveMethodToken(operand, line)
		if err != nil {
			return err
		}
		b.U16(op, m.Index)
	case OpIntern:
		idx, ok := v.InternalIndex(operand)
		if !ok {
			return &AsmError{line, "unknown internal call " + operand}
		}
		b.U16(op, idx)
	case OpNewObj:
		mt, err := v.resolveTypeToken(operand, line)
		if err != nil {
			return err
		}
		b.U16(op, mt.Index)
	case OpNewMD:
		// "newmd T[,]" (or deeper): the operand names the full
		// multidimensional array type; dimension sizes are popped.
		mt, err := v.resolveTypeToken(operand, line)
		if err != nil {
			return err
		}
		if mt.Kind != TKArray || mt.Rank < 2 {
			return &AsmError{line, "newmd requires a multidimensional array type like float64[,]"}
		}
		b.U16(op, mt.Index)
	case OpNewArr:
		// "newarr T" allocates a T[] (the operand is the element type).
		var mt *MethodTable
		if k, ok := KindByName(operand); ok && k != KindVoid {
			mt = v.ArrayType(k, nil, 1)
		} else {
			elem, err := v.resolveTypeToken(operand, line)
			if err != nil {
				return err
			}
			mt = v.ArrayType(KindRef, elem, 1)
		}
		b.U16(op, mt.Index)
	case OpLdFld, OpStFld:
		typeName, fieldName, ok := splitDot(operand)
		if !ok {
			return &AsmError{line, "field operand must be Type.field"}
		}
		mt, found := v.TypeByName(typeName)
		if !found {
			return &AsmError{line, "unknown type " + typeName}
		}
		i := mt.FieldIndex(fieldName)
		if i < 0 {
			return &AsmError{line, "no field " + operand}
		}
		b.U16(op, i)
	case OpLdSFld, OpStSFld:
		i, ok := v.GlobalIndex(operand)
		if !ok {
			return &AsmError{line, "unknown global " + operand}
		}
		b.U16(op, i)
	default:
		b.Op(op)
	}
	return nil
}

func (v *VM) resolveMethodToken(tok string, line int) (*Method, error) {
	if typeName, methodName, ok := splitDot(tok); ok {
		mt, found := v.TypeByName(typeName)
		if !found {
			return nil, &AsmError{line, "unknown type " + typeName}
		}
		if m := mt.MethodByName(methodName); m != nil {
			return m, nil
		}
		// Search parents for inherited methods.
		for p := mt.Parent; p != nil; p = p.Parent {
			if m := p.MethodByName(methodName); m != nil {
				return m, nil
			}
		}
		return nil, &AsmError{line, "unknown method " + tok}
	}
	if m, ok := v.MethodByName(tok); ok {
		return m, nil
	}
	return nil, &AsmError{line, "unknown method " + tok}
}

func splitDot(s string) (string, string, bool) {
	i := strings.LastIndexByte(s, '.')
	if i <= 0 || i == len(s)-1 {
		return "", "", false
	}
	return s[:i], s[i+1:], true
}
