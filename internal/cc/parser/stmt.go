package parser

import (
	"gcsafety/internal/cc/ast"
	"gcsafety/internal/cc/token"
	"gcsafety/internal/cc/types"
)

func (p *Parser) parseBlock() *ast.Block {
	lb := p.expect(token.LBrace)
	p.pushScope()
	b := &ast.Block{Lbrace: lb.Pos}
	for p.tok.Kind != token.RBrace && p.tok.Kind != token.EOF {
		b.Stmts = append(b.Stmts, p.parseStmtSynced())
	}
	rb := p.expect(token.RBrace)
	b.Rbrace = rb.End
	p.popScope()
	return b
}

// parseStmtSynced parses one statement, recovering locally on errors.
func (p *Parser) parseStmtSynced() (s ast.Stmt) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(bailout); !ok {
				panic(r)
			}
			if len(p.errs) > 100 {
				panic(bailout{})
			}
			p.skipToStmtBoundary()
			s = &ast.Empty{SemiPos: p.tok.Pos}
		}
	}()
	return p.parseStmt()
}

func (p *Parser) skipToStmtBoundary() {
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
			if depth == 0 {
				return
			}
			depth--
		}
		p.next()
	}
}

func (p *Parser) parseStmt() ast.Stmt {
	p.nest()
	defer p.unnest()
	switch p.tok.Kind {
	case token.LBrace:
		return p.parseBlock()
	case token.Semi:
		s := &ast.Empty{SemiPos: p.tok.Pos}
		p.next()
		return s
	case token.KwIf:
		kw := p.tok.Pos
		p.next()
		p.expect(token.LParen)
		cond := p.parseExpr()
		p.requireScalar(kw, cond)
		p.expect(token.RParen)
		then := p.parseStmtSynced()
		var els ast.Stmt
		if _, ok := p.accept(token.KwElse); ok {
			els = p.parseStmtSynced()
		}
		return &ast.If{Cond: cond, Then: then, Else: els, KwPos: kw}
	case token.KwWhile:
		kw := p.tok.Pos
		p.next()
		p.expect(token.LParen)
		cond := p.parseExpr()
		p.requireScalar(kw, cond)
		p.expect(token.RParen)
		body := p.parseStmtSynced()
		return &ast.While{Cond: cond, Body: body, KwPos: kw}
	case token.KwDo:
		kw := p.tok.Pos
		p.next()
		body := p.parseStmtSynced()
		p.expect(token.KwWhile)
		p.expect(token.LParen)
		cond := p.parseExpr()
		p.expect(token.RParen)
		p.expect(token.Semi)
		return &ast.DoWhile{Body: body, Cond: cond, KwPos: kw}
	case token.KwFor:
		return p.parseFor()
	case token.KwReturn:
		kw := p.tok.Pos
		p.next()
		var x ast.Expr
		if p.tok.Kind != token.Semi {
			x = p.parseExpr()
			if p.cur != nil {
				p.checkAssignable(kw, p.cur.FType.Ret, x, token.Assign)
			}
		} else if p.cur != nil && !types.IsVoid(p.cur.FType.Ret) {
			// `return;` in a non-void function: tolerated, as pre-ANSI code
			// (and gcc) allow it.
			_ = kw
		}
		p.expect(token.Semi)
		return &ast.Return{X: x, KwPos: kw}
	case token.KwBreak:
		kw := p.tok.Pos
		p.next()
		p.expect(token.Semi)
		return &ast.Break{KwPos: kw}
	case token.KwContinue:
		kw := p.tok.Pos
		p.next()
		p.expect(token.Semi)
		return &ast.Continue{KwPos: kw}
	case token.KwSwitch:
		return p.parseSwitch()
	case token.KwGoto:
		p.errorf(p.tok.Pos, "goto is not supported by this front end")
		panic(bailout{})
	}
	if p.startsDecl() {
		return p.parseDeclStmt()
	}
	x := p.parseExpr()
	semi := p.expect(token.Semi)
	return &ast.ExprStmt{X: x, Semi: semi.End}
}

func (p *Parser) parseDeclStmt() *ast.DeclStmt {
	at := p.tok.Pos
	storage, base, isTypedef := p.parseDeclSpecifiers()
	ds := &ast.DeclStmt{At: at}
	if _, ok := p.accept(token.Semi); ok {
		return ds // bare struct/enum definition
	}
	for {
		name, typ, npos := p.parseDeclarator(base)
		if isTypedef {
			if name == "" {
				p.errorf(npos, "typedef requires a name")
			} else {
				p.topScope().typedefs[name] = typ
				p.lex.DefineType(name)
			}
		} else {
			d := p.finishVarDecl(name, typ, storage, at, npos, false)
			if d != nil {
				ds.Decls = append(ds.Decls, d)
			}
		}
		if _, ok := p.accept(token.Comma); !ok {
			break
		}
	}
	p.expect(token.Semi)
	return ds
}

func (p *Parser) parseFor() ast.Stmt {
	kw := p.tok.Pos
	p.next()
	p.expect(token.LParen)
	p.pushScope() // C89 has no for-scope declarations, but harmless
	defer p.popScope()
	f := &ast.For{KwPos: kw}
	if p.tok.Kind != token.Semi {
		if p.startsDecl() {
			f.Init = p.parseDeclStmt()
		} else {
			x := p.parseExpr()
			semi := p.expect(token.Semi)
			f.Init = &ast.ExprStmt{X: x, Semi: semi.End}
		}
	} else {
		p.next()
	}
	if p.tok.Kind != token.Semi {
		f.Cond = p.parseExpr()
		p.requireScalar(kw, f.Cond)
	}
	p.expect(token.Semi)
	if p.tok.Kind != token.RParen {
		f.Post = p.parseExpr()
	}
	p.expect(token.RParen)
	f.Body = p.parseStmtSynced()
	return f
}

func (p *Parser) parseSwitch() ast.Stmt {
	kw := p.tok.Pos
	p.next()
	p.expect(token.LParen)
	x := p.parseExpr()
	if !types.IsInteger(valueType(x)) {
		p.errorf(kw, "switch expression must have integer type")
	}
	p.expect(token.RParen)
	p.expect(token.LBrace)
	p.pushScope()
	sw := &ast.Switch{X: x, KwPos: kw}
	var cur *ast.CaseClause
	for p.tok.Kind != token.RBrace && p.tok.Kind != token.EOF {
		switch p.tok.Kind {
		case token.KwCase:
			cp := p.tok.Pos
			p.next()
			val := p.parseCondExpr()
			if _, ok := p.evalConst(val); !ok {
				p.errorf(cp, "case label is not a constant expression")
			}
			p.expect(token.Colon)
			// consecutive case labels share one clause
			if cur == nil || len(cur.Stmts) > 0 || cur.Vals == nil {
				cur = &ast.CaseClause{KwPos: cp}
				sw.Cases = append(sw.Cases, cur)
			}
			cur.Vals = append(cur.Vals, val)
		case token.KwDefault:
			cp := p.tok.Pos
			p.next()
			p.expect(token.Colon)
			cur = &ast.CaseClause{KwPos: cp}
			sw.Cases = append(sw.Cases, cur)
		default:
			if cur == nil {
				p.errorf(p.tok.Pos, "statement in switch before any case label")
				cur = &ast.CaseClause{KwPos: p.tok.Pos, Vals: []ast.Expr{}}
				sw.Cases = append(sw.Cases, cur)
			}
			cur.Stmts = append(cur.Stmts, p.parseStmtSynced())
		}
	}
	p.expect(token.RBrace)
	p.popScope()
	return sw
}
