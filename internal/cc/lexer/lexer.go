// Package lexer provides a hand-written scanner for the ANSI C subset. The
// scanner runs on post-cpp text: it skips comments and `# line "file"`
// markers but performs no macro expansion, matching the paper's placement of
// the preprocessor "between the normal C preprocessor (macro-expander) and
// the C compiler".
package lexer

import (
	"fmt"
	"strings"

	"gcsafety/internal/cc/token"
)

// maxErrs bounds the scan errors a Lexer keeps; past it they are only
// counted (Dropped), so a million bad characters cost a counter, and
// "(and N more errors)" stays exact.
const maxErrs = 10

// A Lexer scans C source text into tokens.
type Lexer struct {
	src      string
	off      int
	line     int
	col      int
	typedefs map[string]bool // names to report as TypeName
	errs     []error
	dropped  int // errors reported past maxErrs
}

// New returns a Lexer over src. typedefs may be nil; the parser registers
// typedef names as it sees them via DefineType.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1, typedefs: map[string]bool{}}
}

// DefineType registers name so subsequent occurrences lex as TypeName.
func (l *Lexer) DefineType(name string) { l.typedefs[name] = true }

// IsType reports whether name is a registered typedef name.
func (l *Lexer) IsType(name string) bool { return l.typedefs[name] }

// Errs returns the first maxErrs scanning errors encountered so far.
func (l *Lexer) Errs() []error { return l.errs }

// Dropped returns how many scanning errors so far Errs does not hold.
func (l *Lexer) Dropped() int { return l.dropped }

func (l *Lexer) errorf(p token.Pos, format string, args ...any) {
	if len(l.errs) == maxErrs {
		l.dropped++
		return
	}
	l.errs = append(l.errs, fmt.Errorf("%s: %s", p, fmt.Sprintf(format, args...)))
}

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peekAt(n int) byte {
	if l.off+n >= len(l.src) {
		return 0
	}
	return l.src[l.off+n]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) pos() token.Pos { return token.Pos{Off: l.off, Line: l.line, Col: l.col} }

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}
func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) }
func isDigit(c byte) bool     { return c >= '0' && c <= '9' }
func isHexDigit(c byte) bool {
	return isDigit(c) || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

// skipSpace consumes whitespace, comments and cpp line markers.
func (l *Lexer) skipSpace() {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' || c == 11:
			l.advance()
		case c == '/' && l.peekAt(1) == '*':
			p := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.off < len(l.src) {
				if l.peek() == '*' && l.peekAt(1) == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				l.errorf(p, "unterminated comment")
			}
		case c == '/' && l.peekAt(1) == '/':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '#' && l.col == 1:
			// cpp line marker or directive left in the input: skip the line.
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		default:
			return
		}
	}
}

// Next scans and returns the next token. A character no token starts
// with is reported and skipped.
func (l *Lexer) Next() token.Token {
	for {
		l.skipSpace()
		start := l.pos()
		if l.off >= len(l.src) {
			return token.Token{Kind: token.EOF, Pos: start, End: l.off}
		}
		c := l.peek()
		switch {
		case isIdentStart(c):
			return l.scanIdent(start)
		case isDigit(c):
			return l.scanNumber(start)
		case c == '\'':
			return l.scanChar(start)
		case c == '"':
			return l.scanString(start)
		}
		if t, ok := l.scanOperator(start); ok {
			return t
		}
		l.advance()
		l.errorf(start, "unexpected character %q", c)
	}
}

func (l *Lexer) scanIdent(start token.Pos) token.Token {
	for l.off < len(l.src) && isIdentCont(l.peek()) {
		l.advance()
	}
	text := l.src[start.Off:l.off]
	kind := token.Ident
	if k, ok := token.Keywords[text]; ok {
		kind = k
	} else if l.typedefs[text] {
		kind = token.TypeName
	}
	return token.Token{Kind: kind, Text: text, Pos: start, End: l.off}
}

func (l *Lexer) scanNumber(start token.Pos) token.Token {
	var val int64
	if l.peek() == '0' && (l.peekAt(1) == 'x' || l.peekAt(1) == 'X') {
		l.advance()
		l.advance()
		if !isHexDigit(l.peek()) {
			l.errorf(start, "malformed hexadecimal literal")
		}
		for l.off < len(l.src) && isHexDigit(l.peek()) {
			val = val*16 + int64(hexVal(l.advance()))
		}
	} else if l.peek() == '0' {
		for l.off < len(l.src) && l.peek() >= '0' && l.peek() <= '7' {
			val = val*8 + int64(l.advance()-'0')
		}
		if isDigit(l.peek()) {
			l.errorf(start, "invalid digit in octal literal")
			for l.off < len(l.src) && isDigit(l.peek()) {
				l.advance()
			}
		}
	} else {
		for l.off < len(l.src) && isDigit(l.peek()) {
			val = val*10 + int64(l.advance()-'0')
		}
	}
	// Integer suffixes are accepted and ignored (everything is 32 bits).
	for l.off < len(l.src) && strings.ContainsRune("uUlL", rune(l.peek())) {
		l.advance()
	}
	if l.peek() == '.' || l.peek() == 'e' || l.peek() == 'E' {
		l.errorf(start, "floating-point literals are not supported by this front end")
		for l.off < len(l.src) && (isDigit(l.peek()) || strings.ContainsRune(".eE+-fF", rune(l.peek()))) {
			l.advance()
		}
	}
	return token.Token{Kind: token.IntLit, Text: l.src[start.Off:l.off], Pos: start, End: l.off, IntVal: val}
}

func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	default:
		return int(c-'A') + 10
	}
}

// scanEscape decodes one escape sequence after the backslash has been seen.
func (l *Lexer) scanEscape(start token.Pos) byte {
	if l.off >= len(l.src) {
		l.errorf(start, "unterminated escape sequence")
		return 0
	}
	c := l.advance()
	switch c {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case 'r':
		return '\r'
	case 'b':
		return '\b'
	case 'f':
		return '\f'
	case 'v':
		return 11
	case 'a':
		return 7
	case '0', '1', '2', '3', '4', '5', '6', '7':
		v := int(c - '0')
		for i := 0; i < 2 && l.peek() >= '0' && l.peek() <= '7'; i++ {
			v = v*8 + int(l.advance()-'0')
		}
		return byte(v)
	case 'x':
		v := 0
		for isHexDigit(l.peek()) {
			v = v*16 + hexVal(l.advance())
		}
		return byte(v)
	case '\\', '\'', '"', '?':
		return c
	default:
		l.errorf(start, "unknown escape sequence \\%c", c)
		return c
	}
}

func (l *Lexer) scanChar(start token.Pos) token.Token {
	l.advance() // opening quote
	var val int64
	if l.peek() == '\\' {
		l.advance()
		val = int64(l.scanEscape(start))
	} else if l.off < len(l.src) && l.peek() != '\'' {
		val = int64(l.advance())
	} else {
		l.errorf(start, "empty character literal")
	}
	if l.peek() == '\'' {
		l.advance()
	} else {
		l.errorf(start, "unterminated character literal")
	}
	return token.Token{Kind: token.CharLit, Text: l.src[start.Off:l.off], Pos: start, End: l.off, IntVal: val}
}

func (l *Lexer) scanString(start token.Pos) token.Token {
	l.advance() // opening quote
	var sb strings.Builder
	for {
		if l.off >= len(l.src) || l.peek() == '\n' {
			l.errorf(start, "unterminated string literal")
			break
		}
		c := l.advance()
		if c == '"' {
			break
		}
		if c == '\\' {
			sb.WriteByte(l.scanEscape(start))
			continue
		}
		sb.WriteByte(c)
	}
	// Adjacent string literals concatenate, as in ANSI C.
	for {
		save := *l
		l.skipSpace()
		if l.peek() != '"' {
			*l = save
			break
		}
		l.advance()
		for {
			if l.off >= len(l.src) || l.peek() == '\n' {
				l.errorf(start, "unterminated string literal")
				break
			}
			c := l.advance()
			if c == '"' {
				break
			}
			if c == '\\' {
				sb.WriteByte(l.scanEscape(start))
				continue
			}
			sb.WriteByte(c)
		}
	}
	return token.Token{Kind: token.StrLit, Text: l.src[start.Off:l.off], Pos: start, End: l.off, StrVal: sb.String()}
}

// operators lists the operator spellings by their first byte, longest
// first, so scanOperator tries at most four.
var operators = func() (ops [256][]operator) {
	for _, op := range []operator{
		{"...", token.Ellipsis},
		{"<<=", token.ShlAssign}, {">>=", token.ShrAssign},
		{"++", token.Inc}, {"--", token.Dec}, {"->", token.Arrow},
		{"<<", token.Shl}, {">>", token.Shr},
		{"<=", token.Le}, {">=", token.Ge}, {"==", token.Eq}, {"!=", token.Ne},
		{"&&", token.AndAnd}, {"||", token.OrOr},
		{"+=", token.AddAssign}, {"-=", token.SubAssign}, {"*=", token.MulAssign},
		{"/=", token.DivAssign}, {"%=", token.ModAssign}, {"&=", token.AndAssign},
		{"|=", token.OrAssign}, {"^=", token.XorAssign},
		{"+", token.Plus}, {"-", token.Minus}, {"*", token.Star}, {"/", token.Slash},
		{"%", token.Percent}, {"&", token.Amp}, {"|", token.Pipe}, {"^", token.Caret},
		{"~", token.Tilde}, {"!", token.Not}, {"<", token.Lt}, {">", token.Gt},
		{"=", token.Assign}, {"(", token.LParen}, {")", token.RParen},
		{"{", token.LBrace}, {"}", token.RBrace}, {"[", token.LBracket}, {"]", token.RBracket},
		{";", token.Semi}, {",", token.Comma}, {":", token.Colon}, {"?", token.Question},
		{".", token.Dot},
	} {
		ops[op.text[0]] = append(ops[op.text[0]], op)
	}
	return ops
}()

type operator struct {
	text string
	kind token.Kind
}

// scanOperator scans the longest operator at the cursor; ok is false when
// no operator starts there.
func (l *Lexer) scanOperator(start token.Pos) (t token.Token, ok bool) {
	rest := l.src[l.off:]
	for _, op := range operators[rest[0]] {
		if strings.HasPrefix(rest, op.text) {
			l.off += len(op.text)
			l.col += len(op.text)
			return token.Token{Kind: op.kind, Text: op.text, Pos: start, End: l.off}, true
		}
	}
	return token.Token{}, false
}
