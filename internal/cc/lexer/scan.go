package lexer

import (
	"slices"
	"sort"

	"gcsafety/internal/cc/token"
)

// Scan is one fully scanned source: the complete token stream with every
// identifier reported as Ident (typedef-vs-identifier classification is a
// parse-time decision, so the raw stream is typedef-independent and can be
// shared by every parse of identical text), and the scan errors, each with
// the token that reported it, so a replay reports exactly the errors a
// live lexer would have accumulated by any point in the stream.
//
// A Scan is immutable; Replay hands out independent cursors over it.
type Scan struct {
	Tokens []token.Token
	Errs   []error // the first maxErrs scan errors, as a Lexer keeps them
	// errTok[k] is the index of the token whose scanning reported Errs[k]:
	// a live lexer has reported Errs[k] once that token is delivered.
	errTok []int
	// drops marks, for each token whose scanning reported errors past
	// Errs, how many such errors the scan had reported through it.
	drops []drop
}

type drop struct{ tok, n int }

// ScanAll scans src to EOF. Scanning never fails: malformed input becomes
// error tokens plus entries in Errs, exactly as with the incremental Lexer.
func ScanAll(src string) *Scan {
	l := New(src)
	// C sources run about three bytes a token, so len(src)/2 holds the
	// whole stream without regrowing it. The stream is then copied to its
	// exact length: the artifact cache keeps every scan, and the reserve's
	// slack would stay with it.
	s := &Scan{Tokens: make([]token.Token, 0, len(src)/2+1)}
	for {
		t := l.Next()
		for len(s.errTok) < len(l.errs) {
			s.errTok = append(s.errTok, len(s.Tokens))
		}
		if n := len(s.drops); l.dropped > 0 && (n == 0 || s.drops[n-1].n < l.dropped) {
			s.drops = append(s.drops, drop{tok: len(s.Tokens), n: l.dropped})
		}
		s.Tokens = append(s.Tokens, t)
		if t.Kind == token.EOF {
			break
		}
	}
	s.Tokens = slices.Clone(s.Tokens)
	s.Errs = l.Errs()
	return s
}

// Size is the scan's charge against an artifact cache's byte budget: its
// tokens, the errors it keeps and its drop marks.
func (s *Scan) Size() int64 {
	return int64(len(s.Tokens))*48 + int64(len(s.Errs))*160 + int64(len(s.drops))*16 + 64
}

// Replay returns a fresh token source over the scan. Each Replay owns its
// own position and typedef table, so concurrent parses of one shared Scan
// never interfere.
func (s *Scan) Replay() *Replay {
	return &Replay{scan: s, typedefs: map[string]bool{}}
}

// Replay re-delivers a Scan's tokens with the Lexer's interface contract:
// identifiers registered via DefineType before their delivery come out as
// TypeName (the same temporal semantics as live scanning, where the parser
// registers a typedef name before the lexer reaches its uses), and Errs
// reports only the errors attributable to tokens delivered so far.
type Replay struct {
	scan     *Scan
	pos      int
	typedefs map[string]bool
}

// Next returns the next token; at the end of the stream it returns the EOF
// token indefinitely, as a live Lexer does.
func (r *Replay) Next() token.Token {
	toks := r.scan.Tokens
	if r.pos >= len(toks) {
		return toks[len(toks)-1] // EOF, by ScanAll's construction
	}
	t := toks[r.pos]
	r.pos++
	if t.Kind == token.Ident && r.typedefs[t.Text] {
		t.Kind = token.TypeName
	}
	return t
}

// DefineType registers name so subsequent deliveries report it as TypeName.
func (r *Replay) DefineType(name string) { r.typedefs[name] = true }

// IsType reports whether name is a registered typedef name.
func (r *Replay) IsType(name string) bool { return r.typedefs[name] }

// Errs returns the scan errors attributable to the tokens delivered so far.
func (r *Replay) Errs() []error {
	return r.scan.Errs[:sort.SearchInts(r.scan.errTok, r.pos)]
}

// Dropped returns how many scan errors attributable to the tokens
// delivered so far Errs does not hold.
func (r *Replay) Dropped() int {
	drops := r.scan.drops
	i := sort.Search(len(drops), func(i int) bool { return drops[i].tok >= r.pos })
	if i == 0 {
		return 0
	}
	return drops[i-1].n
}
