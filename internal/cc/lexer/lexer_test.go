package lexer

import (
	"testing"

	"gcsafety/internal/cc/token"
)

func scanAll(t *testing.T, src string) []token.Token {
	t.Helper()
	l := New(src)
	var out []token.Token
	for {
		tk := l.Next()
		if tk.Kind == token.EOF {
			break
		}
		out = append(out, tk)
		if len(out) > 10000 {
			t.Fatal("runaway lexer")
		}
	}
	if errs := l.Errs(); len(errs) > 0 {
		t.Fatalf("scan errors: %v", errs)
	}
	return out
}

func kinds(ts []token.Token) []token.Kind {
	out := make([]token.Kind, len(ts))
	for i, t := range ts {
		out[i] = t.Kind
	}
	return out
}

func TestBasicTokens(t *testing.T) {
	ts := scanAll(t, "int x = 42;")
	want := []token.Kind{token.KwInt, token.Ident, token.Assign, token.IntLit, token.Semi}
	got := kinds(ts)
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
	if ts[3].IntVal != 42 {
		t.Fatalf("IntVal = %d", ts[3].IntVal)
	}
}

func TestAllOperators(t *testing.T) {
	src := "+ - * / % & | ^ ~ ! << >> < > <= >= == != && || = += -= *= /= %= &= |= ^= <<= >>= ++ -- -> . ? : , ; ( ) [ ] { } ..."
	ts := scanAll(t, src)
	want := []token.Kind{
		token.Plus, token.Minus, token.Star, token.Slash, token.Percent,
		token.Amp, token.Pipe, token.Caret, token.Tilde, token.Not,
		token.Shl, token.Shr, token.Lt, token.Gt, token.Le, token.Ge,
		token.Eq, token.Ne, token.AndAnd, token.OrOr,
		token.Assign, token.AddAssign, token.SubAssign, token.MulAssign,
		token.DivAssign, token.ModAssign, token.AndAssign, token.OrAssign,
		token.XorAssign, token.ShlAssign, token.ShrAssign,
		token.Inc, token.Dec, token.Arrow, token.Dot,
		token.Question, token.Colon, token.Comma, token.Semi,
		token.LParen, token.RParen, token.LBracket, token.RBracket,
		token.LBrace, token.RBrace, token.Ellipsis,
	}
	got := kinds(ts)
	if len(got) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMaximalMunch(t *testing.T) {
	// x+++y lexes as x ++ + y
	ts := scanAll(t, "x+++y")
	want := []token.Kind{token.Ident, token.Inc, token.Plus, token.Ident}
	got := kinds(ts)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v", got)
		}
	}
}

func TestNumberBases(t *testing.T) {
	ts := scanAll(t, "0 7 42 0x1F 0xff 017 0777 42u 42L 0x10UL")
	want := []int64{0, 7, 42, 31, 255, 15, 511, 42, 42, 16}
	for i, w := range want {
		if ts[i].Kind != token.IntLit || ts[i].IntVal != w {
			t.Errorf("token %d: %v val %d, want %d", i, ts[i].Kind, ts[i].IntVal, w)
		}
	}
}

func TestCharLiterals(t *testing.T) {
	ts := scanAll(t, `'a' '\n' '\t' '\0' '\\' '\'' '\x41' '\101'`)
	want := []int64{'a', '\n', '\t', 0, '\\', '\'', 0x41, 0101}
	for i, w := range want {
		if ts[i].IntVal != w {
			t.Errorf("char %d = %d, want %d", i, ts[i].IntVal, w)
		}
	}
}

func TestStringLiteral(t *testing.T) {
	ts := scanAll(t, `"hi\n\t\"there\"" "a" "b"`)
	// adjacent literals concatenate into one token, as in ANSI C
	if len(ts) != 1 {
		t.Fatalf("concatenation: got %d tokens", len(ts))
	}
	if ts[0].StrVal != "hi\n\t\"there\"ab" {
		t.Fatalf("got %q", ts[0].StrVal)
	}
}

func TestCommentsSkipped(t *testing.T) {
	ts := scanAll(t, "a /* whole\nblock */ b // line\nc")
	if len(ts) != 3 {
		t.Fatalf("got %d tokens", len(ts))
	}
}

func TestLineDirectivesSkipped(t *testing.T) {
	ts := scanAll(t, "# 1 \"file.c\"\nx\n#pragma foo\ny")
	if len(ts) != 2 || ts[0].Text != "x" || ts[1].Text != "y" {
		t.Fatalf("got %v", ts)
	}
}

func TestTypedefNameReporting(t *testing.T) {
	l := New("Foo x; Foo")
	l.DefineType("Foo")
	tk := l.Next()
	if tk.Kind != token.TypeName {
		t.Fatalf("first Foo = %v", tk.Kind)
	}
	if !l.IsType("Foo") || l.IsType("Bar") {
		t.Fatal("IsType bookkeeping wrong")
	}
}

func TestPositions(t *testing.T) {
	src := "ab\ncd ef"
	ts := scanAll(t, src)
	if ts[0].Pos.Line != 1 || ts[0].Pos.Col != 1 {
		t.Errorf("ab at %v", ts[0].Pos)
	}
	if ts[1].Pos.Line != 2 || ts[1].Pos.Col != 1 {
		t.Errorf("cd at %v", ts[1].Pos)
	}
	if ts[2].Pos.Line != 2 || ts[2].Pos.Col != 4 {
		t.Errorf("ef at %v", ts[2].Pos)
	}
	for _, tk := range ts {
		if src[tk.Pos.Off:tk.End] != tk.Text {
			t.Errorf("span mismatch for %q", tk.Text)
		}
	}
}

func TestErrorRecovery(t *testing.T) {
	l := New("a @ b $ 1.5")
	n := 0
	for l.Next().Kind != token.EOF {
		n++
		if n > 100 {
			t.Fatal("runaway")
		}
	}
	if len(l.Errs()) == 0 {
		t.Fatal("expected scan errors")
	}
}

func TestUnterminatedConstructs(t *testing.T) {
	for _, src := range []string{`"abc`, `'a`, "/* never closed"} {
		l := New(src)
		for l.Next().Kind != token.EOF {
		}
		if len(l.Errs()) == 0 {
			t.Errorf("%q: no error", src)
		}
	}
}

func TestKeywordsAllRecognized(t *testing.T) {
	for word, kind := range token.Keywords {
		l := New(word)
		tk := l.Next()
		if tk.Kind != kind {
			t.Errorf("%s lexed as %v", word, tk.Kind)
		}
	}
}

// TestReplayMatchesLiveLexer pins the replay contract on malformed input:
// after every token, a Replay over ScanAll delivers the live Lexer's token
// and reports exactly the errors the live Lexer has reported so far.
func TestReplayMatchesLiveLexer(t *testing.T) {
	for _, src := range []string{"", "int x;", "a @ b $ 1.5 @@ c", `x = "abc`, "@/* never closed"} {
		live, r := New(src), ScanAll(src).Replay()
		for i := 0; ; i++ {
			want, got := live.Next(), r.Next()
			if got != want {
				t.Fatalf("%q token %d: replay %+v, live %+v", src, i, got, want)
			}
			if g, w := len(r.Errs()), len(live.Errs()); g != w {
				t.Fatalf("%q token %d: replay reports %d errors, live %d", src, i, g, w)
			}
			if want.Kind == token.EOF {
				break
			}
		}
	}
}
