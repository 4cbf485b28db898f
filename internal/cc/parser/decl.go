package parser

import (
	"gcsafety/internal/cc/ast"
	"gcsafety/internal/cc/token"
	"gcsafety/internal/cc/types"
)

// startsDecl reports whether the current token can begin a declaration.
func (p *Parser) startsDecl() bool {
	switch p.tok.Kind {
	case token.KwVoid, token.KwChar, token.KwShort, token.KwInt, token.KwLong,
		token.KwSigned, token.KwUnsigned, token.KwFloat, token.KwDouble,
		token.KwStruct, token.KwUnion, token.KwEnum, token.KwTypedef,
		token.KwExtern, token.KwStatic, token.KwAuto, token.KwRegister,
		token.KwConst, token.KwVolatile, token.TypeName:
		return true
	}
	return false
}

// parseDeclSpecifiers parses storage-class and type specifiers and returns
// the base type.
func (p *Parser) parseDeclSpecifiers() (storage ast.Storage, base types.Type, isTypedef bool) {
	storage = ast.Auto
	var (
		sawUnsigned, sawSigned bool
		sawChar, sawShort      bool
		sawInt, sawVoid        bool
		sawLong                bool
		explicit               types.Type
	)
	for {
		switch p.tok.Kind {
		case token.KwTypedef:
			isTypedef = true
			p.next()
		case token.KwExtern:
			storage = ast.Extern
			p.next()
		case token.KwStatic:
			storage = ast.Static
			p.next()
		case token.KwAuto:
			storage = ast.Auto
			p.next()
		case token.KwRegister:
			storage = ast.Register
			p.next()
		case token.KwConst, token.KwVolatile:
			// Qualifiers are accepted and ignored; the simulated machine has
			// no memory-mapped IO and the annotator never relies on them.
			p.next()
		case token.KwVoid:
			sawVoid = true
			p.next()
		case token.KwChar:
			sawChar = true
			p.next()
		case token.KwShort:
			sawShort = true
			p.next()
		case token.KwInt:
			sawInt = true
			p.next()
		case token.KwLong:
			sawLong = true
			p.next()
		case token.KwSigned:
			sawSigned = true
			p.next()
		case token.KwUnsigned:
			sawUnsigned = true
			p.next()
		case token.KwFloat, token.KwDouble:
			p.errorf(p.tok.Pos, "floating-point types are not supported by this front end")
			p.next()
			explicit = types.IntType
		case token.KwStruct, token.KwUnion:
			explicit = p.parseStructSpecifier()
		case token.KwEnum:
			explicit = p.parseEnumSpecifier()
		case token.TypeName:
			if explicit == nil && !sawChar && !sawShort && !sawInt && !sawVoid && !sawLong && !sawSigned && !sawUnsigned {
				explicit = p.lookupTypedef(p.tok.Text)
				p.next()
			} else {
				goto done
			}
		default:
			goto done
		}
	}
done:
	if explicit != nil {
		return storage, explicit, isTypedef
	}
	switch {
	case sawVoid:
		base = types.VoidType
	case sawChar && sawUnsigned:
		base = types.UCharType
	case sawChar:
		base = types.CharType
	case sawShort && sawUnsigned:
		base = types.UShortType
	case sawShort:
		base = types.ShortType
	case sawUnsigned:
		base = types.UIntType
	case sawInt, sawLong, sawSigned:
		base = types.IntType
	default:
		p.errorf(p.tok.Pos, "expected type specifier, found %q", p.tok.Text)
		base = types.IntType
	}
	return storage, base, isTypedef
}

func (p *Parser) parseStructSpecifier() types.Type {
	p.nest()
	defer p.unnest()
	union := p.tok.Kind == token.KwUnion
	p.next()
	tag := ""
	if p.tok.Kind == token.Ident || p.tok.Kind == token.TypeName {
		tag = p.tok.Text
		p.next()
	}
	var st *types.Struct
	if tag != "" {
		if existing, ok := p.lookupTag("struct " + tag).(*types.Struct); ok {
			st = existing
		}
	}
	if p.tok.Kind != token.LBrace {
		// Reference to a (possibly forward-declared) tag.
		if st == nil {
			st = types.NewStruct(tag, union)
			if tag != "" {
				p.topScope().tags["struct "+tag] = st
			}
		}
		return st
	}
	if st == nil || st.Completed() {
		st = types.NewStruct(tag, union)
	}
	if tag != "" {
		p.topScope().tags["struct "+tag] = st
	}
	p.expect(token.LBrace)
	var fields []types.Field
	for p.tok.Kind != token.RBrace && p.tok.Kind != token.EOF {
		_, base, _ := p.parseDeclSpecifiers()
		for {
			name, typ, npos := p.parseDeclarator(base)
			if name == "" {
				p.errorf(npos, "unnamed struct member")
			}
			if _, ok := p.accept(token.Colon); ok {
				p.errorf(npos, "bit-fields are not supported")
				p.parseCondExpr()
			}
			fields = append(fields, types.Field{Name: name, Type: typ})
			if _, ok := p.accept(token.Comma); !ok {
				break
			}
		}
		p.expect(token.Semi)
	}
	end := p.expect(token.RBrace)
	if err := st.Complete(fields); err != nil {
		p.errorf(end.Pos, "%v", err)
	}
	return st
}

func (p *Parser) parseEnumSpecifier() types.Type {
	p.next()
	tag := ""
	if p.tok.Kind == token.Ident || p.tok.Kind == token.TypeName {
		tag = p.tok.Text
		p.next()
	}
	et := &types.Enum{Tag: tag}
	if tag != "" {
		if existing, ok := p.lookupTag("enum " + tag).(*types.Enum); ok && p.tok.Kind != token.LBrace {
			return existing
		}
		p.topScope().tags["enum "+tag] = et
	}
	if p.tok.Kind != token.LBrace {
		return et
	}
	p.expect(token.LBrace)
	next := int64(0)
	for p.tok.Kind != token.RBrace && p.tok.Kind != token.EOF {
		name := p.expect(token.Ident)
		if _, ok := p.accept(token.Assign); ok {
			v, ok := p.evalConst(p.parseCondExpr())
			if !ok {
				p.errorf(name.Pos, "enumerator %s requires a constant expression", name.Text)
			}
			next = v
		}
		obj := &ast.Object{Name: name.Text, Kind: ast.ObjEnumConst, Type: types.IntType, EnumVal: next, Global: len(p.scopes) == 1}
		p.declare(obj, name.Pos)
		next++
		if _, ok := p.accept(token.Comma); !ok {
			break
		}
	}
	p.expect(token.RBrace)
	return et
}

// parseDeclarator parses one declarator built on base and returns the
// declared name (possibly empty for abstract declarators), its type and the
// name position.
func (p *Parser) parseDeclarator(base types.Type) (string, types.Type, token.Pos) {
	p.nest()
	defer p.unnest()
	for {
		if _, ok := p.accept(token.Star); ok {
			for p.tok.Kind == token.KwConst || p.tok.Kind == token.KwVolatile {
				p.next()
			}
			base = types.PointerTo(base)
			continue
		}
		break
	}
	return p.parseDirectDeclarator(base)
}

func (p *Parser) parseDirectDeclarator(base types.Type) (string, types.Type, token.Pos) {
	var name string
	npos := p.tok.Pos
	switch p.tok.Kind {
	case token.Ident, token.TypeName:
		name = p.tok.Text
		p.next()
	case token.LParen:
		// Distinguish a parenthesized declarator `(*x)` from a parameter
		// list `(int x)`. A parenthesized declarator `(*f)(...)` needs the
		// inner declarator applied to the type built from the *outer*
		// suffixes, so the inner part is parsed into a chain description
		// and applied once the suffixes are known.
		nt := p.peek(0)
		if nt.Kind == token.Star || nt.Kind == token.Ident && !p.lex.IsType(nt.Text) {
			p.next()
			chain := p.parseDeclChain()
			p.expect(token.RParen)
			base = p.parseDeclSuffixes(base)
			t := chain.apply(base, p)
			return chain.name, t, chain.pos
		}
	}
	base = p.parseDeclSuffixes(base)
	return name, base, npos
}

// declChain records the pointer/array/function structure of a parenthesized
// declarator so it can be applied once the outer suffix types are known.
type declChain struct {
	name   string
	pos    token.Pos
	stars  int
	apply_ []func(types.Type, *Parser) types.Type
}

func (c *declChain) apply(t types.Type, p *Parser) types.Type {
	for i := 0; i < c.stars; i++ {
		t = types.PointerTo(t)
	}
	for i := len(c.apply_) - 1; i >= 0; i-- {
		t = c.apply_[i](t, p)
	}
	return t
}

func (p *Parser) parseDeclChain() *declChain {
	c := &declChain{pos: p.tok.Pos}
	for {
		if _, ok := p.accept(token.Star); ok {
			c.stars++
			continue
		}
		break
	}
	if p.tok.Kind == token.Ident || p.tok.Kind == token.TypeName {
		c.name = p.tok.Text
		c.pos = p.tok.Pos
		p.next()
	}
	// suffixes inside the parens bind tighter than outer ones
	for {
		switch p.tok.Kind {
		case token.LBracket:
			p.next()
			ln := -1
			if p.tok.Kind != token.RBracket {
				v, ok := p.evalConst(p.parseCondExpr())
				if !ok || v < 0 {
					p.errorf(p.tok.Pos, "array size must be a nonnegative constant")
					v = 0
				}
				ln = int(v)
			}
			p.expect(token.RBracket)
			n := ln
			c.apply_ = append(c.apply_, func(t types.Type, _ *Parser) types.Type {
				return &types.Array{Elem: t, Len: n}
			})
		case token.LParen:
			params, variadic, oldStyle := p.parseParamList()
			c.apply_ = append(c.apply_, func(t types.Type, _ *Parser) types.Type {
				return &types.Func{Ret: t, Params: params, Variadic: variadic, OldStyle: oldStyle}
			})
		default:
			return c
		}
	}
}

// parseDeclSuffixes parses array and parameter-list suffixes.
func (p *Parser) parseDeclSuffixes(base types.Type) types.Type {
	p.nest()
	defer p.unnest()
	switch p.tok.Kind {
	case token.LBracket:
		p.next()
		ln := -1
		if p.tok.Kind != token.RBracket {
			v, ok := p.evalConst(p.parseCondExpr())
			if !ok || v < 0 {
				p.errorf(p.tok.Pos, "array size must be a nonnegative constant")
				v = 0
			}
			ln = int(v)
		}
		p.expect(token.RBracket)
		elem := p.parseDeclSuffixes(base)
		return &types.Array{Elem: elem, Len: ln}
	case token.LParen:
		params, variadic, oldStyle := p.parseParamList()
		ret := p.parseDeclSuffixes(base)
		return &types.Func{Ret: ret, Params: params, Variadic: variadic, OldStyle: oldStyle}
	}
	return base
}

func (p *Parser) parseParamList() (params []types.Param, variadic, oldStyle bool) {
	p.expect(token.LParen)
	if _, ok := p.accept(token.RParen); ok {
		return nil, false, true
	}
	// (void) means no parameters
	if p.tok.Kind == token.KwVoid && p.peek(0).Kind == token.RParen {
		p.next()
		p.next()
		return nil, false, false
	}
	for {
		if _, ok := p.accept(token.Ellipsis); ok {
			variadic = true
			break
		}
		_, base, _ := p.parseDeclSpecifiers()
		name, typ, _ := p.parseDeclarator(base)
		// Arrays and functions decay in parameter position.
		typ = types.Decay(typ)
		params = append(params, types.Param{Name: name, Type: typ})
		if _, ok := p.accept(token.Comma); !ok {
			break
		}
	}
	p.expect(token.RParen)
	return params, variadic, false
}

// parseTypeName parses a type-name (for casts and sizeof).
func (p *Parser) parseTypeName() types.Type {
	_, base, _ := p.parseDeclSpecifiers()
	name, typ, pos := p.parseDeclarator(base)
	if name != "" {
		p.errorf(pos, "unexpected name %q in type name", name)
	}
	return typ
}
