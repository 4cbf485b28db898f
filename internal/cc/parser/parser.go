// Package parser implements a hand-written recursive-descent parser and
// one-pass type checker for the ANSI C subset used by the workloads (the
// calibration note for this reproduction: "no strong C-frontend libraries;
// manual parsing"). The parser is typedef-aware in the usual C fashion: the
// lexer reports registered typedef names as TypeName tokens.
package parser

import (
	"fmt"

	"gcsafety/internal/cc/ast"
	"gcsafety/internal/cc/lexer"
	"gcsafety/internal/cc/token"
	"gcsafety/internal/cc/types"
)

// TokenSource is the parser's view of its token supply. *lexer.Lexer is
// the live implementation; *lexer.Replay re-delivers a cached lexer.Scan so
// a content-addressed pipeline can share one scan across many parses.
// DefineType/IsType carry the typedef feedback channel C parsing requires.
type TokenSource interface {
	Next() token.Token
	DefineType(name string)
	IsType(name string) bool
	Errs() []error // the first scan errors of the tokens delivered so far
	Dropped() int  // how many more there were
}

// Parse parses a complete translation unit. name is used in diagnostics.
// The returned file is fully resolved and type-checked; err aggregates all
// diagnostics encountered.
func Parse(name, src string) (*ast.File, error) {
	return ParseTokens(name, src, lexer.New(src))
}

// ParseTokens parses a translation unit from an explicit token source.
// Behavior is identical to Parse when ts is a fresh lexer over src; the
// pipeline's Parse stage passes a lexer.Replay instead, so identical text
// is scanned once no matter how many treatment cells parse it.
func ParseTokens(name, src string, ts TokenSource) (*ast.File, error) {
	p := &Parser{
		lex:  ts,
		file: &ast.File{Name: name, Source: src},
	}
	p.pushScope()
	p.declareBuiltins()
	p.next()
	p.parseFile()
	p.popScope()
	for _, e := range p.lex.Errs() {
		p.errs = append(p.errs, fmt.Errorf("%s: %v", name, e))
	}
	if len(p.errs) > 0 {
		return p.file, &ErrorList{Errs: p.errs, Dropped: p.lex.Dropped()}
	}
	return p.file, nil
}

// ErrorList aggregates parse and type errors. Dropped counts the scan
// errors past the ones the lexer keeps, which Errs does not hold.
type ErrorList struct {
	Errs    []error
	Dropped int
}

func (e *ErrorList) Error() string {
	if more := len(e.Errs) - 1 + e.Dropped; more > 0 {
		return fmt.Sprintf("%v (and %d more errors)", e.Errs[0], more)
	}
	return e.Errs[0].Error()
}

// scope is one lexical scope: ordinary identifiers, typedef names and
// struct/union/enum tags occupy their proper separate name spaces.
type scope struct {
	objects  map[string]*ast.Object
	typedefs map[string]types.Type
	tags     map[string]types.Type
}

// Parser holds the parse state.
type Parser struct {
	lex    TokenSource
	tok    token.Token
	ahead  []token.Token // pushback queue for lookahead
	file   *ast.File
	errs   []error
	scopes []*scope
	cur    *ast.FuncDecl
	seq    int
	depth  int // current nesting, see nest
}

type bailout struct{}

// maxNesting bounds the nesting of the parser's recursive constructs:
// assignment, conditional, cast and unary expressions, statements,
// declarators and structure bodies. A parenthesized expression takes four
// levels, so about 1,000 parentheses nest (C11 asks for 63), and a hostile
// source fails the parse long before it overflows the Go stack.
const maxNesting = 4096

// nest enters one level of nesting; the caller defers p.unnest().
func (p *Parser) nest() {
	p.depth++
	if p.depth > maxNesting {
		p.errorf(p.tok.Pos, "nesting exceeds %d levels", maxNesting)
		panic(bailout{})
	}
}

func (p *Parser) unnest() { p.depth-- }

func (p *Parser) errorf(pos token.Pos, format string, args ...any) {
	if len(p.errs) > 100 {
		panic(bailout{})
	}
	p.errs = append(p.errs, fmt.Errorf("%s:%s: %s", p.file.Name, pos, fmt.Sprintf(format, args...)))
}

func (p *Parser) next() {
	if len(p.ahead) > 0 {
		p.tok = p.ahead[0]
		p.ahead = p.ahead[1:]
		return
	}
	p.tok = p.lex.Next()
}

// peek returns the token n positions ahead (0 = the token after p.tok).
func (p *Parser) peek(n int) token.Token {
	for len(p.ahead) <= n {
		p.ahead = append(p.ahead, p.lex.Next())
	}
	return p.ahead[n]
}

func (p *Parser) expect(k token.Kind) token.Token {
	t := p.tok
	if t.Kind != k {
		p.errorf(t.Pos, "expected %q, found %q", k.String(), t.Text)
		panic(bailout{})
	}
	p.next()
	return t
}

// accept consumes the current token if it has kind k.
func (p *Parser) accept(k token.Kind) (token.Token, bool) {
	if p.tok.Kind == k {
		t := p.tok
		p.next()
		return t, true
	}
	return token.Token{}, false
}

func (p *Parser) pushScope() {
	p.scopes = append(p.scopes, &scope{
		objects:  map[string]*ast.Object{},
		typedefs: map[string]types.Type{},
		tags:     map[string]types.Type{},
	})
}

func (p *Parser) popScope() { p.scopes = p.scopes[:len(p.scopes)-1] }

func (p *Parser) topScope() *scope { return p.scopes[len(p.scopes)-1] }

func (p *Parser) lookup(name string) *ast.Object {
	for i := len(p.scopes) - 1; i >= 0; i-- {
		if o, ok := p.scopes[i].objects[name]; ok {
			return o
		}
	}
	return nil
}

func (p *Parser) lookupTypedef(name string) types.Type {
	for i := len(p.scopes) - 1; i >= 0; i-- {
		if t, ok := p.scopes[i].typedefs[name]; ok {
			return t
		}
	}
	return nil
}

func (p *Parser) lookupTag(name string) types.Type {
	for i := len(p.scopes) - 1; i >= 0; i-- {
		if t, ok := p.scopes[i].tags[name]; ok {
			return t
		}
	}
	return nil
}

func (p *Parser) declare(o *ast.Object, pos token.Pos) {
	s := p.topScope()
	if old, ok := s.objects[o.Name]; ok {
		// Redeclaration: allow matching extern/prototype pairs.
		if old.Kind == ast.ObjFunc && o.Kind == ast.ObjFunc {
			s.objects[o.Name] = o
			return
		}
		if old.Storage == ast.Extern || o.Storage == ast.Extern {
			return
		}
		p.errorf(pos, "redeclaration of %q", o.Name)
		return
	}
	p.seq++
	o.Seq = p.seq
	s.objects[o.Name] = o
}

// declareBuiltins installs the runtime interface the workloads compile
// against: the collecting allocator, the checking primitives and the
// unpreprocessed "standard library" (the paper: "Standard C libraries were
// not preprocessed").
func (p *Parser) declareBuiltins() {
	charPtr := types.PointerTo(types.CharType)
	voidPtr := types.PointerTo(types.VoidType)
	decl := func(name string, ret types.Type, params []types.Param, variadic bool) {
		o := &ast.Object{
			Name:    name,
			Kind:    ast.ObjFunc,
			Storage: ast.Extern,
			Global:  true,
			Type:    &types.Func{Ret: ret, Params: params, Variadic: variadic},
		}
		p.topScope().objects[name] = o
	}
	pp := func(ts ...types.Type) []types.Param {
		var out []types.Param
		for _, t := range ts {
			out = append(out, types.Param{Type: t})
		}
		return out
	}
	uint_ := types.UIntType
	int_ := types.IntType
	// KEEP_LIVE is declared old-style so annotated output re-parses; the
	// real implementation is the opaque pseudo-instruction (or, portably,
	// "a call to an external function whose implementation is unavailable
	// to the compiler for analysis, but which actually just returns its
	// first argument").
	p.topScope().objects["KEEP_LIVE"] = &ast.Object{
		Name: "KEEP_LIVE", Kind: ast.ObjFunc, Storage: ast.Extern, Global: true,
		Type: &types.Func{Ret: voidPtr, OldStyle: true},
	}
	decl("malloc", voidPtr, pp(uint_), false)
	decl("calloc", voidPtr, pp(uint_, uint_), false)
	decl("realloc", voidPtr, pp(voidPtr, uint_), false)
	decl("free", types.VoidType, pp(voidPtr), false)
	decl("GC_malloc", voidPtr, pp(uint_), false)
	decl("GC_same_obj", voidPtr, pp(voidPtr, voidPtr), false)
	decl("GC_base", voidPtr, pp(voidPtr), false)
	decl("GC_pre_incr", voidPtr, pp(types.PointerTo(voidPtr), int_), false)
	decl("GC_post_incr", voidPtr, pp(types.PointerTo(voidPtr), int_), false)
	decl("GC_free", types.VoidType, pp(voidPtr), false)
	decl("GC_gcollect", types.VoidType, nil, false)
	// join_threads blocks until every worker thread has finished (a no-op
	// in single-thread execution).
	decl("join_threads", types.VoidType, nil, false)
	// string.h / stdio.h subset, implemented natively by the runtime.
	decl("strlen", uint_, pp(charPtr), false)
	decl("strcpy", charPtr, pp(charPtr, charPtr), false)
	decl("strncpy", charPtr, pp(charPtr, charPtr, uint_), false)
	decl("strcmp", int_, pp(charPtr, charPtr), false)
	decl("strncmp", int_, pp(charPtr, charPtr, uint_), false)
	decl("strcat", charPtr, pp(charPtr, charPtr), false)
	decl("strchr", charPtr, pp(charPtr, int_), false)
	decl("memcpy", voidPtr, pp(voidPtr, voidPtr, uint_), false)
	decl("memmove", voidPtr, pp(voidPtr, voidPtr, uint_), false)
	decl("memset", voidPtr, pp(voidPtr, int_, uint_), false)
	decl("memcmp", int_, pp(voidPtr, voidPtr, uint_), false)
	decl("putchar", int_, pp(int_), false)
	decl("puts", int_, pp(charPtr), false)
	decl("print_int", types.VoidType, pp(int_), false)
	decl("print_str", types.VoidType, pp(charPtr), false)
	decl("getchar", int_, nil, false)
	decl("abort", types.VoidType, nil, false)
	decl("exit", types.VoidType, pp(int_), false)
	decl("assert_true", types.VoidType, pp(int_), false)
	decl("rand_next", uint_, nil, false)
}

// parseFile parses the translation unit.
func (p *Parser) parseFile() {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(bailout); !ok {
				panic(r)
			}
		}
	}()
	for p.tok.Kind != token.EOF {
		p.parseTopLevel()
	}
}

func (p *Parser) parseTopLevel() {
	defer p.sync()
	at := p.tok.Pos
	storage, base, isTypedef := p.parseDeclSpecifiers()
	// A bare `struct s { ... };` or `enum {...};` defines the tag only.
	if _, ok := p.accept(token.Semi); ok {
		return
	}
	first := true
	for {
		name, typ, npos := p.parseDeclarator(base)
		if isTypedef {
			if name == "" {
				p.errorf(npos, "typedef requires a name")
			} else {
				p.topScope().typedefs[name] = typ
				p.lex.DefineType(name)
			}
		} else if ft, ok := typ.(*types.Func); ok && first && p.tok.Kind == token.LBrace {
			p.parseFuncDef(name, ft, storage, at)
			return
		} else {
			p.finishVarDecl(name, typ, storage, at, npos, true)
		}
		first = false
		if _, ok := p.accept(token.Comma); !ok {
			break
		}
	}
	p.expect(token.Semi)
}

// sync recovers from a bailout panic by skipping to a likely declaration or
// statement boundary.
func (p *Parser) sync() {
	r := recover()
	if r == nil {
		return
	}
	if _, ok := r.(bailout); !ok {
		panic(r)
	}
	if len(p.errs) > 100 {
		panic(bailout{}) // give up entirely; caught in parseFile
	}
	depth := 0
	for p.tok.Kind != token.EOF {
		switch p.tok.Kind {
		case token.Semi:
			if depth == 0 {
				p.next()
				return
			}
		case token.LBrace:
			depth++
		case token.RBrace:
			depth--
			if depth <= 0 {
				p.next()
				return
			}
		}
		p.next()
	}
}

// finishVarDecl handles the initializer and declares the object. global
// declarations go straight into file.Decls; local ones are returned via
// p.pendingDecls by parseDeclStmt.
func (p *Parser) finishVarDecl(name string, typ types.Type, storage ast.Storage, at token.Pos, npos token.Pos, global bool) *ast.VarDecl {
	if name == "" {
		p.errorf(npos, "declarator requires a name")
		return nil
	}
	kind := ast.ObjVar
	if ft, ok := typ.(*types.Func); ok {
		_ = ft
		kind = ast.ObjFunc
		storage = ast.Extern
	}
	obj := &ast.Object{Name: name, Kind: kind, Type: typ, Storage: storage, Global: global}
	if global && storage != ast.Static {
		// file-scope objects default to external linkage
		if storage == ast.Auto || storage == ast.Register {
			obj.Storage = ast.Extern
		}
	}
	d := &ast.VarDecl{Obj: obj, At: at}
	if _, ok := p.accept(token.Assign); ok {
		p.parseInitializer(d)
	}
	d.EndOff = p.tok.Pos.Off
	// Arrays with inferred length take it from the initializer.
	if arr, ok := typ.(*types.Array); ok && arr.Len < 0 {
		switch {
		case d.InitList != nil:
			arr.Len = len(d.InitList)
		case d.Init != nil:
			if s, ok := ast.Unparen(d.Init).(*ast.StrLit); ok {
				arr.Len = len(s.Val) + 1
			}
		}
	}
	p.declare(obj, npos)
	if global && kind == ast.ObjVar {
		p.file.Decls = append(p.file.Decls, d)
	}
	return d
}

func (p *Parser) parseInitializer(d *ast.VarDecl) {
	if p.tok.Kind == token.LBrace {
		p.next()
		for p.tok.Kind != token.RBrace && p.tok.Kind != token.EOF {
			if p.tok.Kind == token.LBrace {
				// Nested braces: flatten (sufficient for arrays of structs
				// with scalar members, which is all the workloads use).
				p.next()
				for p.tok.Kind != token.RBrace && p.tok.Kind != token.EOF {
					d.InitList = append(d.InitList, p.parseAssignExpr())
					if _, ok := p.accept(token.Comma); !ok {
						break
					}
				}
				p.expect(token.RBrace)
			} else {
				d.InitList = append(d.InitList, p.parseAssignExpr())
			}
			if _, ok := p.accept(token.Comma); !ok {
				break
			}
		}
		p.expect(token.RBrace)
		if d.InitList == nil {
			d.InitList = []ast.Expr{}
		}
		return
	}
	d.Init = p.parseAssignExpr()
}

func (p *Parser) parseFuncDef(name string, ft *types.Func, storage ast.Storage, at token.Pos) {
	obj := &ast.Object{Name: name, Kind: ast.ObjFunc, Type: ft, Storage: storage, Global: true}
	p.declare(obj, at)
	fd := &ast.FuncDecl{Obj: obj, FType: ft, At: at}
	p.cur = fd
	p.pushScope()
	for i := range ft.Params {
		prm := ft.Params[i]
		if prm.Name == "" {
			p.errorf(at, "parameter %d of %s has no name", i+1, name)
			continue
		}
		po := &ast.Object{Name: prm.Name, Kind: ast.ObjParam, Type: prm.Type}
		p.declare(po, at)
		fd.Params = append(fd.Params, po)
	}
	fd.Body = p.parseBlock()
	p.popScope()
	p.cur = nil
	p.file.Decls = append(p.file.Decls, fd)
}

// NewTemp synthesizes a fresh temporary object of the given type for fn.
// It is used by the gcsafe annotation pass ("we assume that temporaries
// have already been introduced").
func NewTemp(fn *ast.FuncDecl, t types.Type) *ast.Object {
	o := &ast.Object{
		Name: fmt.Sprintf("__tmp%d", len(fn.Temps)+1),
		Kind: ast.ObjTemp,
		Type: t,
	}
	fn.Temps = append(fn.Temps, o)
	return o
}
