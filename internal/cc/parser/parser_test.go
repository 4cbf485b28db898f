package parser

import (
	"fmt"
	"strings"
	"testing"

	"gcsafety/internal/cc/ast"
	"gcsafety/internal/cc/types"
)

func mustParse(t *testing.T, src string) *ast.File {
	t.Helper()
	f, err := Parse("test.c", src)
	if err != nil {
		t.Fatalf("parse error: %v", err)
	}
	return f
}

func parseErr(t *testing.T, src string) error {
	t.Helper()
	_, err := Parse("test.c", src)
	if err == nil {
		t.Fatalf("expected parse error for %q", src)
	}
	return err
}

func TestParseEmptyMain(t *testing.T) {
	f := mustParse(t, "int main() { return 0; }")
	fd := f.FuncByName("main")
	if fd == nil {
		t.Fatal("main not found")
	}
	if len(fd.Body.Stmts) != 1 {
		t.Fatalf("got %d statements, want 1", len(fd.Body.Stmts))
	}
}

func TestParseGlobals(t *testing.T) {
	f := mustParse(t, `
int x;
static int y = 5;
char *msg = "hello";
int arr[10];
int table[] = {1, 2, 3, 4};
`)
	var vars []*ast.VarDecl
	for _, d := range f.Decls {
		if v, ok := d.(*ast.VarDecl); ok {
			vars = append(vars, v)
		}
	}
	if len(vars) != 5 {
		t.Fatalf("got %d globals, want 5", len(vars))
	}
	if vars[1].Obj.Storage != ast.Static {
		t.Error("y should be static")
	}
	arr := vars[4].Obj.Type.(*types.Array)
	if arr.Len != 4 {
		t.Errorf("table length = %d, want 4 (inferred)", arr.Len)
	}
}

func TestStringArrayLengthInference(t *testing.T) {
	f := mustParse(t, `char greeting[] = "hi";`)
	v := f.Decls[0].(*ast.VarDecl)
	if got := v.Obj.Type.(*types.Array).Len; got != 3 {
		t.Fatalf("greeting length = %d, want 3 (2 chars + NUL)", got)
	}
}

func TestParseStruct(t *testing.T) {
	f := mustParse(t, `
struct point { int x; int y; };
struct point origin;
int use() { return origin.x + origin.y; }
`)
	v := f.Decls[0].(*ast.VarDecl)
	st := v.Obj.Type.(*types.Struct)
	if st.Size() != 8 {
		t.Errorf("struct point size = %d, want 8", st.Size())
	}
	if st.Fields[1].Off != 4 {
		t.Errorf("y offset = %d, want 4", st.Fields[1].Off)
	}
}

func TestStructLayoutAlignment(t *testing.T) {
	f := mustParse(t, `struct s { char c; int i; char d; }; struct s v;`)
	st := f.Decls[0].(*ast.VarDecl).Obj.Type.(*types.Struct)
	if st.Fields[1].Off != 4 {
		t.Errorf("i offset = %d, want 4", st.Fields[1].Off)
	}
	if st.Size() != 12 {
		t.Errorf("size = %d, want 12", st.Size())
	}
}

func TestUnionLayout(t *testing.T) {
	f := mustParse(t, `union u { char c; int i; short s; }; union u v;`)
	u := f.Decls[0].(*ast.VarDecl).Obj.Type.(*types.Struct)
	if u.Size() != 4 {
		t.Errorf("union size = %d, want 4", u.Size())
	}
	for _, fl := range u.Fields {
		if fl.Off != 0 {
			t.Errorf("union field %s at offset %d", fl.Name, fl.Off)
		}
	}
}

func TestSelfReferentialStruct(t *testing.T) {
	mustParse(t, `
struct node { int val; struct node *next; };
struct node *head;
int sum() {
    struct node *p;
    int s = 0;
    for (p = head; p != 0; p = p->next) s += p->val;
    return s;
}
`)
}

func TestTypedef(t *testing.T) {
	f := mustParse(t, `
typedef struct node { int v; struct node *next; } Node;
typedef Node *NodePtr;
NodePtr head;
int first() { return head->v; }
`)
	v := f.Decls[0].(*ast.VarDecl)
	pt := v.Obj.Type.(*types.Pointer)
	if _, ok := pt.Elem.(*types.Struct); !ok {
		t.Fatalf("NodePtr elem = %T, want struct", pt.Elem)
	}
}

func TestEnum(t *testing.T) {
	mustParse(t, `
enum color { RED, GREEN = 5, BLUE };
int f() { return RED + GREEN + BLUE; }
int arr[BLUE];
`)
	f := mustParse(t, `enum e { A = 2, B }; int arr[B];`)
	arr := f.Decls[0].(*ast.VarDecl).Obj.Type.(*types.Array)
	if arr.Len != 3 {
		t.Fatalf("arr len = %d, want 3", arr.Len)
	}
}

func TestFunctionPointerDeclarator(t *testing.T) {
	f := mustParse(t, `
int apply(int (*fn)(int), int x) { return fn(x); }
`)
	fd := f.FuncByName("apply")
	pt := fd.FType.Params[0].Type.(*types.Pointer)
	if _, ok := pt.Elem.(*types.Func); !ok {
		t.Fatalf("param 0 = %s, want pointer to function", fd.FType.Params[0].Type)
	}
}

func TestExpressionTypes(t *testing.T) {
	f := mustParse(t, `
char *p;
int i;
int g() { return p[i]; }
char *h() { return p + i; }
int d() { return p - p; }
`)
	_ = f
}

func TestPointerArithTypeErrors(t *testing.T) {
	parseErr(t, `char *p; char *q; int f() { return (p + q) - p; }`)
	parseErr(t, `int f() { return *5; }`)
	parseErr(t, `struct s { int x; }; struct s v; int f() { return v->x; }`)
}

func TestUndeclared(t *testing.T) {
	err := parseErr(t, `int f() { return zzz; }`)
	if !strings.Contains(err.Error(), "undeclared") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestLvalueErrors(t *testing.T) {
	parseErr(t, `int f() { 5 = 3; return 0; }`)
	parseErr(t, `int g() { int x; (x + 1)++; return x; }`)
	parseErr(t, `int h() { int x; &(x + 1); return x; }`)
}

func TestControlFlowParsing(t *testing.T) {
	mustParse(t, `
int collatz(int n) {
    int steps = 0;
    while (n != 1) {
        if (n % 2 == 0) n = n / 2;
        else n = 3 * n + 1;
        steps++;
    }
    return steps;
}
int loops() {
    int i, s = 0;
    for (i = 0; i < 10; i++) s += i;
    do { s--; } while (s > 20);
    return s;
}
`)
}

func TestSwitchParsing(t *testing.T) {
	f := mustParse(t, `
int classify(int c) {
    switch (c) {
    case 'a':
    case 'b':
        return 1;
    case 10:
        return 2;
    default:
        return 0;
    }
}
`)
	fd := f.FuncByName("classify")
	sw := fd.Body.Stmts[0].(*ast.Switch)
	if len(sw.Cases) != 3 {
		t.Fatalf("got %d cases, want 3", len(sw.Cases))
	}
	if len(sw.Cases[0].Vals) != 2 {
		t.Fatalf("first clause has %d labels, want 2", len(sw.Cases[0].Vals))
	}
	if sw.Cases[2].Vals != nil {
		t.Fatal("third clause should be default")
	}
}

func TestCharAndStringEscapes(t *testing.T) {
	f := mustParse(t, `
char nl = '\n';
char *s = "a\tb\\c\"d\0e";
`)
	v := f.Decls[0].(*ast.VarDecl)
	if v.Init.(*ast.CharLit).Val != '\n' {
		t.Error("newline escape wrong")
	}
	s := f.Decls[1].(*ast.VarDecl).Init.(*ast.StrLit)
	if s.Val != "a\tb\\c\"d\x00e" {
		t.Errorf("string = %q", s.Val)
	}
}

func TestStringConcatenation(t *testing.T) {
	f := mustParse(t, `char *s = "foo" "bar";`)
	s := f.Decls[0].(*ast.VarDecl).Init.(*ast.StrLit)
	if s.Val != "foobar" {
		t.Fatalf("concatenated = %q", s.Val)
	}
}

func TestNumericLiterals(t *testing.T) {
	f := mustParse(t, `
int a = 0x1F;
int b = 017;
int c = 42u;
int d = 1000000L;
`)
	want := []int64{31, 15, 42, 1000000}
	for i, w := range want {
		v := f.Decls[i].(*ast.VarDecl).Init.(*ast.IntLit)
		if v.Val != w {
			t.Errorf("decl %d = %d, want %d", i, v.Val, w)
		}
	}
}

func TestSizeof(t *testing.T) {
	f := mustParse(t, `
struct big { int a; int b; char c; };
int s1[sizeof(int)];
int s2[sizeof(struct big)];
int s3[sizeof(char *)];
`)
	lens := []int{4, 12, 4}
	for i, w := range lens {
		arr := f.Decls[i].(*ast.VarDecl).Obj.Type.(*types.Array)
		if arr.Len != w {
			t.Errorf("s%d len = %d, want %d", i+1, arr.Len, w)
		}
	}
}

func TestCastsAndConditional(t *testing.T) {
	mustParse(t, `
char *mem();
int f(int n) {
    char *p = (char *)mem();
    unsigned u = (unsigned)n;
    int x = n > 0 ? n : -n;
    return *p + (int)u + x;
}
`)
}

func TestCommaOperator(t *testing.T) {
	f := mustParse(t, `int f(int a, int b) { return (a++, b++, a + b); }`)
	_ = f
}

func TestCommentHandling(t *testing.T) {
	mustParse(t, `
/* block comment
   spanning lines */
int x; // line comment
int /* inline */ y;
`)
}

func TestCppLineMarkers(t *testing.T) {
	mustParse(t, `# 1 "foo.c"
int x;
#pragma whatever
int y;
`)
}

func TestPositionsRecorded(t *testing.T) {
	src := `int main() { return 1 + 2; }`
	f := mustParse(t, src)
	fd := f.FuncByName("main")
	ret := fd.Body.Stmts[0].(*ast.Return)
	b := ret.X.(*ast.Binary)
	if got := src[b.Pos().Off:b.End()]; got != "1 + 2" {
		t.Fatalf("binary span = %q, want %q", got, "1 + 2")
	}
}

func TestNestedDeclaratorArrayOfPointers(t *testing.T) {
	f := mustParse(t, `char *names[4];`)
	arr := f.Decls[0].(*ast.VarDecl).Obj.Type.(*types.Array)
	if arr.Len != 4 {
		t.Fatalf("len = %d", arr.Len)
	}
	if _, ok := arr.Elem.(*types.Pointer); !ok {
		t.Fatalf("elem = %s, want char *", arr.Elem)
	}
}

func TestVariadicDecl(t *testing.T) {
	f := mustParse(t, `int printf_like(char *fmt, ...); int f() { return printf_like("x", 1, 2, 3); }`)
	_ = f
}

func TestBuiltinsAvailable(t *testing.T) {
	mustParse(t, `
int main() {
    char *p = (char *)GC_malloc(100);
    p = (char *)GC_same_obj((void *)(p + 1), (void *)p);
    print_int(strlen(p));
    return 0;
}
`)
}

func TestAddrTakenFlag(t *testing.T) {
	f := mustParse(t, `
void g(int *p);
int f() { int x; int y; g(&x); return x + y; }
`)
	fd := f.FuncByName("f")
	ds := fd.Body.Stmts[0].(*ast.DeclStmt)
	if !ds.Decls[0].Obj.AddrTaken {
		t.Error("x should be AddrTaken")
	}
	ds2 := fd.Body.Stmts[1].(*ast.DeclStmt)
	if ds2.Decls[0].Obj.AddrTaken {
		t.Error("y should not be AddrTaken")
	}
}

func TestShadowing(t *testing.T) {
	f := mustParse(t, `
int x = 1;
int f() {
    int x = 2;
    { int x = 3; x++; }
    return x;
}
`)
	_ = f
}

func TestPrintExprRoundTrip(t *testing.T) {
	src := `int f(int a, char *p) { return a + p[a * 2] - (a ? 1 : 2); }`
	f := mustParse(t, src)
	fd := f.FuncByName("f")
	ret := fd.Body.Stmts[0].(*ast.Return)
	text := ast.PrintExpr(ret.X)
	// Re-parse the printed text inside an equivalent frame.
	re := `int f(int a, char *p) { return ` + text + `; }`
	mustParse(t, re)
}

func TestErrorRecoveryContinues(t *testing.T) {
	_, err := Parse("test.c", `
int good1() { return 1; }
int bad() { return @#$; }
int good2() { return 2; }
`)
	if err == nil {
		t.Fatal("expected error")
	}
}

// TestDroppedScanErrorsAreCounted: the error text counts every scan
// error, also those the lexer does not keep.
func TestDroppedScanErrorsAreCounted(t *testing.T) {
	for _, n := range []int{1, 2, 10, 11, 100_000} {
		_, err := Parse("at.c", "int main(void) { return 0; }"+strings.Repeat("@", n))
		want := "at.c: 1:29: unexpected character '@'"
		if n > 1 {
			want += fmt.Sprintf(" (and %d more errors)", n-1)
		}
		if err == nil || err.Error() != want {
			t.Errorf("%d bad characters: got %v, want %s", n, err, want)
		}
	}
}
