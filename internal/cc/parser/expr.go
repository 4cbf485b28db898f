package parser

import (
	"strings"

	"gcsafety/internal/cc/ast"
	"gcsafety/internal/cc/token"
	"gcsafety/internal/cc/types"
)

// Expression grammar, standard C precedence. Every parse function returns a
// fully typed node; type errors are reported and a best-effort type is
// assigned so parsing continues.

func (p *Parser) parseExpr() ast.Expr {
	e := p.parseAssignExpr()
	for p.tok.Kind == token.Comma {
		p.next()
		y := p.parseAssignExpr()
		c := &ast.Comma{X: e, Y: y}
		c.SetType(valueType(y))
		e = c
	}
	return e
}

func (p *Parser) parseAssignExpr() ast.Expr {
	p.nest()
	defer p.unnest()
	l := p.parseCondExpr()
	if !p.tok.Kind.IsAssign() {
		return l
	}
	op := p.tok.Kind
	opPos := p.tok.Pos
	p.next()
	r := p.parseAssignExpr()
	if !p.isLvalue(l) {
		p.errorf(opPos, "assignment target is not an lvalue")
	}
	lt := l.Type()
	p.checkAssignable(opPos, lt, r, op)
	a := &ast.Assign{Op: op, L: l, R: r}
	a.SetType(lt)
	return a
}

func (p *Parser) parseCondExpr() ast.Expr {
	p.nest()
	defer p.unnest()
	c := p.parseBinaryExpr(1)
	if p.tok.Kind != token.Question {
		return c
	}
	qPos := p.tok.Pos
	p.next()
	t := p.parseExpr()
	p.expect(token.Colon)
	f := p.parseCondExpr()
	p.requireScalar(qPos, c)
	cond := &ast.Cond{C: c, T: t, F: f}
	tt, ft := valueType(t), valueType(f)
	switch {
	case types.IsPointer(tt):
		cond.SetType(tt)
	case types.IsPointer(ft):
		cond.SetType(ft)
	case types.IsInteger(tt) && types.IsInteger(ft):
		cond.SetType(types.Arith(tt, ft))
	default:
		cond.SetType(tt)
	}
	return cond
}

// binary operator precedence, highest binds tightest.
func binPrec(k token.Kind) int {
	switch k {
	case token.OrOr:
		return 1
	case token.AndAnd:
		return 2
	case token.Pipe:
		return 3
	case token.Caret:
		return 4
	case token.Amp:
		return 5
	case token.Eq, token.Ne:
		return 6
	case token.Lt, token.Gt, token.Le, token.Ge:
		return 7
	case token.Shl, token.Shr:
		return 8
	case token.Plus, token.Minus:
		return 9
	case token.Star, token.Slash, token.Percent:
		return 10
	}
	return 0
}

func (p *Parser) parseBinaryExpr(minPrec int) ast.Expr {
	x := p.parseCastExpr()
	for {
		prec := binPrec(p.tok.Kind)
		if prec < minPrec || prec == 0 {
			return x
		}
		op := p.tok.Kind
		opPos := p.tok.Pos
		p.next()
		y := p.parseBinaryExpr(prec + 1)
		x = p.typeBinary(opPos, op, x, y)
	}
}

// typeBinary builds and types a binary node.
func (p *Parser) typeBinary(pos token.Pos, op token.Kind, x, y ast.Expr) ast.Expr {
	b := &ast.Binary{Op: op, X: x, Y: y}
	xt, yt := valueType(x), valueType(y)
	switch op {
	case token.Plus:
		switch {
		case types.IsPointer(xt) && types.IsInteger(yt):
			b.SetType(xt)
		case types.IsInteger(xt) && types.IsPointer(yt):
			b.SetType(yt)
		case types.IsInteger(xt) && types.IsInteger(yt):
			b.SetType(types.Arith(xt, yt))
		default:
			p.errorf(pos, "invalid operands to + (%s and %s)", xt, yt)
			b.SetType(types.IntType)
		}
	case token.Minus:
		switch {
		case types.IsPointer(xt) && types.IsInteger(yt):
			b.SetType(xt)
		case types.IsPointer(xt) && types.IsPointer(yt):
			b.SetType(types.IntType)
		case types.IsInteger(xt) && types.IsInteger(yt):
			b.SetType(types.Arith(xt, yt))
		default:
			p.errorf(pos, "invalid operands to - (%s and %s)", xt, yt)
			b.SetType(types.IntType)
		}
	case token.Star, token.Slash, token.Percent, token.Amp, token.Pipe, token.Caret, token.Shl, token.Shr:
		if !types.IsInteger(xt) || !types.IsInteger(yt) {
			p.errorf(pos, "invalid operands to %s (%s and %s)", op, xt, yt)
		}
		if op == token.Shl || op == token.Shr {
			b.SetType(types.Promote(xt))
		} else {
			b.SetType(types.Arith(xt, yt))
		}
	case token.Eq, token.Ne, token.Lt, token.Gt, token.Le, token.Ge:
		okPtr := types.IsPointer(xt) && (types.IsPointer(yt) || isNullConst(y)) ||
			types.IsPointer(yt) && (types.IsPointer(xt) || isNullConst(x))
		okInt := types.IsInteger(xt) && types.IsInteger(yt)
		if !okPtr && !okInt {
			p.errorf(pos, "invalid comparison between %s and %s", xt, yt)
		}
		b.SetType(types.IntType)
	case token.AndAnd, token.OrOr:
		p.requireScalar(pos, x)
		p.requireScalar(pos, y)
		b.SetType(types.IntType)
	default:
		p.errorf(pos, "unexpected binary operator %s", op)
		b.SetType(types.IntType)
	}
	return b
}

func (p *Parser) parseCastExpr() ast.Expr {
	p.nest()
	defer p.unnest()
	if p.tok.Kind == token.LParen && p.startsTypeAfterLParen() {
		lp := p.tok.Pos
		p.next()
		startOff := p.tok.Pos.Off
		t := p.parseTypeName()
		endOff := p.tok.Pos.Off
		p.expect(token.RParen)
		x := p.parseCastExpr()
		c := &ast.Cast{To: t, TypeText: trimSpace(p.file.Source[startOff:endOff]), X: x, Lparen: lp}
		c.SetType(t)
		p.checkCast(lp, t, x)
		return c
	}
	return p.parseUnaryExpr()
}

func trimSpace(s string) string {
	for len(s) > 0 && (s[len(s)-1] == ' ' || s[len(s)-1] == '\t' || s[len(s)-1] == '\n') {
		s = s[:len(s)-1]
	}
	for len(s) > 0 && (s[0] == ' ' || s[0] == '\t' || s[0] == '\n') {
		s = s[1:]
	}
	return s
}

// startsTypeAfterLParen reports whether the token after the current LParen
// begins a type name (making this a cast or compound literal, not a
// parenthesized expression).
func (p *Parser) startsTypeAfterLParen() bool {
	switch p.peek(0).Kind {
	case token.KwVoid, token.KwChar, token.KwShort, token.KwInt, token.KwLong,
		token.KwSigned, token.KwUnsigned, token.KwFloat, token.KwDouble,
		token.KwStruct, token.KwUnion, token.KwEnum, token.KwConst,
		token.KwVolatile, token.TypeName:
		return true
	}
	return false
}

func (p *Parser) parseUnaryExpr() ast.Expr {
	p.nest()
	defer p.unnest()
	pos := p.tok.Pos
	switch p.tok.Kind {
	case token.Inc, token.Dec:
		op := p.tok.Kind
		p.next()
		x := p.parseUnaryExpr()
		if !p.isLvalue(x) {
			p.errorf(pos, "operand of %s is not an lvalue", op)
		}
		u := &ast.Unary{Op: op, X: x, OpPos: pos, OpEnd: x.End()}
		u.SetType(valueType(x))
		p.requireScalar(pos, x)
		return u
	case token.Plus, token.Minus, token.Tilde:
		op := p.tok.Kind
		p.next()
		x := p.parseCastExpr()
		if !types.IsInteger(valueType(x)) {
			p.errorf(pos, "operand of unary %s must be integer", op)
		}
		u := &ast.Unary{Op: op, X: x, OpPos: pos}
		u.SetType(types.Promote(valueType(x)))
		return u
	case token.Not:
		p.next()
		x := p.parseCastExpr()
		p.requireScalar(pos, x)
		u := &ast.Unary{Op: token.Not, X: x, OpPos: pos}
		u.SetType(types.IntType)
		return u
	case token.Star:
		p.next()
		x := p.parseCastExpr()
		xt := valueType(x)
		u := &ast.Unary{Op: token.Star, X: x, OpPos: pos}
		if pt, ok := xt.(*types.Pointer); ok {
			u.SetType(pt.Elem)
		} else {
			p.errorf(pos, "cannot dereference non-pointer type %s", xt)
			u.SetType(types.IntType)
		}
		return u
	case token.Amp:
		p.next()
		x := p.parseCastExpr()
		if !p.isLvalue(x) {
			p.errorf(pos, "cannot take the address of a non-lvalue")
		}
		p.markAddrTaken(x)
		u := &ast.Unary{Op: token.Amp, X: x, OpPos: pos}
		t := x.Type()
		if t == nil {
			t = types.IntType
		}
		u.SetType(types.PointerTo(t))
		return u
	case token.KwSizeof:
		p.next()
		if p.tok.Kind == token.LParen && p.startsTypeAfterLParen() {
			p.next()
			startOff := p.tok.Pos.Off
			t := p.parseTypeName()
			endOff := p.tok.Pos.Off
			rp := p.expect(token.RParen)
			s := &ast.SizeofType{Of: t, TypeText: trimSpace(p.file.Source[startOff:endOff]), KwPos: pos, RparenEnd: rp.End}
			s.SetType(types.UIntType)
			return s
		}
		x := p.parseUnaryExpr()
		s := &ast.SizeofExpr{X: x, KwPos: pos}
		s.SetType(types.UIntType)
		return s
	}
	return p.parsePostfixExpr()
}

func (p *Parser) parsePostfixExpr() ast.Expr {
	x := p.parsePrimaryExpr()
	for {
		switch p.tok.Kind {
		case token.LBracket:
			p.next()
			i := p.parseExpr()
			rb := p.expect(token.RBracket)
			x = p.typeIndex(x, i, rb.End)
		case token.LParen:
			lp := p.tok.Pos
			p.next()
			var args []ast.Expr
			for p.tok.Kind != token.RParen && p.tok.Kind != token.EOF {
				args = append(args, p.parseAssignExpr())
				if _, ok := p.accept(token.Comma); !ok {
					break
				}
			}
			rp := p.expect(token.RParen)
			x = p.typeCall(x, args, lp, rp.End)
		case token.Dot, token.Arrow:
			arrow := p.tok.Kind == token.Arrow
			opPos := p.tok.Pos
			p.next()
			var name token.Token
			if p.tok.Kind == token.Ident || p.tok.Kind == token.TypeName {
				name = p.tok
				p.next()
			} else {
				p.errorf(p.tok.Pos, "expected member name after %q", opPos)
				name = p.tok
			}
			x = p.typeMember(x, name, arrow, opPos)
		case token.Inc, token.Dec:
			op := p.tok.Kind
			opEnd := p.tok.End
			opPos := p.tok.Pos
			p.next()
			if !p.isLvalue(x) {
				p.errorf(opPos, "operand of postfix %s is not an lvalue", op)
			}
			p.requireScalar(opPos, x)
			u := &ast.Unary{Op: op, X: x, Postfix: true, OpPos: opPos, OpEnd: opEnd}
			u.SetType(valueType(x))
			x = u
		default:
			return x
		}
	}
}

func (p *Parser) typeIndex(x ast.Expr, i ast.Expr, rbrack int) ast.Expr {
	ix := &ast.Index{X: x, I: i, Rbrack: rbrack}
	xt, it := valueType(x), valueType(i)
	switch {
	case types.IsPointer(xt) && types.IsInteger(it):
		ix.SetType(xt.(*types.Pointer).Elem)
	case types.IsInteger(xt) && types.IsPointer(it):
		ix.SetType(it.(*types.Pointer).Elem)
	default:
		p.errorf(x.Pos(), "invalid subscript of %s by %s", xt, it)
		ix.SetType(types.IntType)
	}
	return ix
}

func (p *Parser) typeCall(fun ast.Expr, args []ast.Expr, lp token.Pos, rp int) ast.Expr {
	c := &ast.Call{Fun: fun, Args: args, Lparen: lp, Rparen: rp}
	ft := funcType(fun)
	if ft == nil {
		p.errorf(lp, "called object is not a function")
		c.SetType(types.IntType)
		return c
	}
	if !ft.OldStyle {
		if len(args) < len(ft.Params) || len(args) > len(ft.Params) && !ft.Variadic {
			p.errorf(lp, "wrong number of arguments (%d) to function expecting %d", len(args), len(ft.Params))
		}
		for i, a := range args {
			if i < len(ft.Params) {
				p.checkAssignable(a.Pos(), ft.Params[i].Type, a, token.Assign)
			}
		}
	}
	c.SetType(ft.Ret)
	return c
}

// funcType extracts the function type of a call target, looking through
// pointers and decay.
func funcType(fun ast.Expr) *types.Func {
	t := fun.Type()
	if t == nil {
		return nil
	}
	if ft, ok := t.(*types.Func); ok {
		return ft
	}
	if pt, ok := types.Decay(t).(*types.Pointer); ok {
		if ft, ok := pt.Elem.(*types.Func); ok {
			return ft
		}
	}
	return nil
}

func (p *Parser) typeMember(x ast.Expr, name token.Token, arrow bool, opPos token.Pos) ast.Expr {
	m := &ast.Member{X: x, Name: name.Text, Arrow: arrow, NameEnd: name.End}
	var st *types.Struct
	xt := x.Type()
	if arrow {
		if pt, ok := types.Decay(xt).(*types.Pointer); ok {
			st, _ = pt.Elem.(*types.Struct)
		}
	} else {
		st, _ = xt.(*types.Struct)
	}
	if st == nil {
		p.errorf(opPos, "member access on non-struct type %s", xt)
		m.SetType(types.IntType)
		return m
	}
	f := st.FieldByName(name.Text)
	if f == nil {
		p.errorf(name.Pos, "no member %q in %s", name.Text, st)
		m.SetType(types.IntType)
		return m
	}
	m.Field = f
	m.SetType(f.Type)
	return m
}

func (p *Parser) parsePrimaryExpr() ast.Expr {
	tk := p.tok
	switch tk.Kind {
	case token.Ident:
		p.next()
		id := &ast.Ident{Name: tk.Text, NamePos: tk.Pos, NameEnd: tk.End}
		obj := p.lookup(tk.Text)
		if obj == nil {
			// Implicit function declaration if followed by '(' — pre-ANSI
			// style kept for convenience; otherwise an error.
			if p.tok.Kind == token.LParen {
				obj = &ast.Object{
					Name: tk.Text, Kind: ast.ObjFunc, Storage: ast.Extern, Global: true,
					Type: &types.Func{Ret: types.IntType, OldStyle: true},
				}
				p.scopes[0].objects[tk.Text] = obj
				p.errorf(tk.Pos, "implicit declaration of function %q", tk.Text)
			} else {
				p.errorf(tk.Pos, "undeclared identifier %q", tk.Text)
				obj = &ast.Object{Name: tk.Text, Kind: ast.ObjVar, Type: types.IntType}
			}
		}
		id.Obj = obj
		id.SetType(obj.Type)
		return id
	case token.IntLit:
		p.next()
		l := &ast.IntLit{Val: tk.IntVal, LitPos: tk.Pos, LitEnd: tk.End}
		// A u/U suffix or a value not representable as int makes the
		// constant unsigned (the only other 32-bit integer type here).
		if tk.IntVal > 0x7FFFFFFF || strings.ContainsAny(tk.Text, "uU") {
			l.SetType(types.UIntType)
		} else {
			l.SetType(types.IntType)
		}
		return l
	case token.CharLit:
		p.next()
		l := &ast.CharLit{Val: tk.IntVal, LitPos: tk.Pos, LitEnd: tk.End}
		l.SetType(types.IntType)
		return l
	case token.StrLit:
		p.next()
		l := &ast.StrLit{Val: tk.StrVal, LitPos: tk.Pos, LitEnd: tk.End}
		l.SetType(&types.Array{Elem: types.CharType, Len: len(tk.StrVal) + 1})
		return l
	case token.LParen:
		p.next()
		x := p.parseExpr()
		rp := p.expect(token.RParen)
		par := &ast.Paren{X: x, Lparen: tk.Pos, RparenEnd: rp.End}
		par.SetType(x.Type())
		return par
	}
	p.errorf(tk.Pos, "expected expression, found %q", tk.Text)
	panic(bailout{})
}

// --- typing helpers ---

// valueType is the type of e when used as a value: arrays and functions
// decay to pointers.
func valueType(e ast.Expr) types.Type {
	t := e.Type()
	if t == nil {
		return types.IntType
	}
	return types.Decay(t)
}

func isNullConst(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.IntLit:
		return e.Val == 0
	case *ast.Cast:
		return types.IsPointer(e.To) && isNullConst(e.X)
	}
	return false
}

func (p *Parser) isLvalue(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Obj != nil && (e.Obj.Kind == ast.ObjVar || e.Obj.Kind == ast.ObjParam || e.Obj.Kind == ast.ObjTemp)
	case *ast.Unary:
		return e.Op == token.Star && !e.Postfix
	case *ast.Index:
		return true
	case *ast.Member:
		if e.Arrow {
			return true
		}
		return p.isLvalue(e.X)
	case *ast.Paren:
		return p.isLvalue(e.X)
	}
	return false
}

func (p *Parser) markAddrTaken(e ast.Expr) {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok && id.Obj != nil {
		id.Obj.AddrTaken = true
	}
	if m, ok := ast.Unparen(e).(*ast.Member); ok && !m.Arrow {
		p.markAddrTaken(m.X)
	}
}

func (p *Parser) requireScalar(pos token.Pos, e ast.Expr) {
	if !types.IsScalar(valueType(e)) {
		p.errorf(pos, "scalar value required, found %s", valueType(e))
	}
}

// checkAssignable verifies that r can be assigned to an lvalue of type lt.
// C's lax rules are followed: integer<->integer freely, pointer<->pointer
// with a warning channel handled by the gcsafe checker, 0 to pointers,
// struct to identical struct.
func (p *Parser) checkAssignable(pos token.Pos, lt types.Type, r ast.Expr, op token.Kind) {
	rt := valueType(r)
	if op != token.Assign {
		// compound assignment: operands behave like the binary operator
		if !types.IsScalar(lt) {
			p.errorf(pos, "compound assignment to non-scalar %s", lt)
		}
		return
	}
	switch {
	case types.IsInteger(lt) && types.IsInteger(rt):
	case types.IsPointer(lt) && types.IsPointer(rt):
	case types.IsPointer(lt) && isNullConst(r):
	case types.IsPointer(lt) && types.IsInteger(rt):
		// legal only with a cast in ANSI C; accepted with a diagnostic by
		// the source-checking pass, not here
	case types.IsInteger(lt) && types.IsPointer(rt):
	case types.IsVoid(lt):
	default:
		st, ok1 := lt.(*types.Struct)
		st2, ok2 := rt.(*types.Struct)
		if ok1 && ok2 && st == st2 {
			return
		}
		p.errorf(pos, "incompatible assignment of %s to %s", rt, lt)
	}
}

func (p *Parser) checkCast(pos token.Pos, to types.Type, x ast.Expr) {
	xt := valueType(x)
	if types.IsScalar(to) && types.IsScalar(xt) {
		return
	}
	if types.IsVoid(to) {
		return
	}
	p.errorf(pos, "invalid cast from %s to %s", xt, to)
}
