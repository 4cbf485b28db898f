package interp

import (
	"errors"
	"strings"
	"testing"

	"gcsafety/internal/cc/ast"
	"gcsafety/internal/cc/parser"
	"gcsafety/internal/codegen"
	"gcsafety/internal/gcsafe"
	"gcsafety/internal/machine"
	"gcsafety/internal/workloads"
)

// Runtime library behaviour, exercised through compiled C.

func TestRuntimeMemoryFunctions(t *testing.T) {
	runBoth(t, `
int main() {
    char *a = (char *)GC_malloc(32);
    char *b = (char *)GC_malloc(32);
    memset((void *)a, 'x', 8);
    a[8] = 0;
    print_int(strlen(a));
    memcpy((void *)b, (void *)a, 9);
    print_int(strcmp(a, b));
    print_int(memcmp((void *)a, (void *)b, 9));
    b[3] = 'y';
    print_int(memcmp((void *)a, (void *)b, 9) != 0);
    /* overlapping move */
    strcpy(a, "abcdef");
    memmove((void *)(a + 2), (void *)a, 4);
    print_str(a);
    return 0;
}
`, "8001ababcd")
}

func TestRuntimeStringFunctions(t *testing.T) {
	runBoth(t, `
int main() {
    char *s = (char *)GC_malloc(64);
    strncpy(s, "hello world", 5);
    s[5] = 0;
    print_str(s);
    print_int(strncmp("abcdef", "abcxyz", 3));
    print_int(strncmp("abcdef", "abcxyz", 4) < 0);
    print_int(strchr("hello", 'z') == 0);
    char *e = strchr("hello", 0);   /* points at the terminator */
    print_int(*e == 0);
    return 0;
}
`, "hello0111")
}

func TestRuntimeGCBase(t *testing.T) {
	runBoth(t, `
int main() {
    char *p = (char *)GC_malloc(100);
    char *mid = p + 57;
    print_int((char *)GC_base((void *)mid) == p);
    print_int(GC_base((void *)0) == 0);
    return 0;
}
`, "11")
}

func TestDivisionByZeroFault(t *testing.T) {
	src := `int main() { int z = 0; return 5 / z; }`
	file := mustParseSrc(t, src)
	prog := mustCompile(t, file, true)
	_, err := Run(prog, Options{Config: cfgSS10()})
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("err = %v", err)
	}
}

// stackOverflowSrc recurses through a 200-word frame until the stack
// runs out.
const stackOverflowSrc = `
int deep(int n) {
    int pad[200];
    pad[0] = n;
    return deep(pad[0] + 1);
}
int main() { return deep(0); }
`

// TestStackOverflowFault pins the whole overflow fault: the faulting
// function and pc, the stack pointer AdjSP refused, and the instructions
// executed up to it.
func TestStackOverflowFault(t *testing.T) {
	prog := mustCompile(t, mustParseSrc(t, stackOverflowSrc), false)
	m := New(prog, Options{Config: cfgSS10(), MaxInstrs: 100_000_000})
	res, err := m.Run()
	checkStackFault(t, res, err, "deep", 0, "stack overflow (sp=0x3feffd7c)", 16957)
	if got, want := len(m.stack), int(machine.StackTop-machine.StackLimit); got != want {
		t.Errorf("materialized stack = %d bytes, want the whole %d", got, want)
	}
}

// TestStackMaterializedOnDemand checks that a run allocates only the
// stack it touches: gawk, one of the deepest workloads, leaves at most
// 64 KiB of its MiB materialized.
func TestStackMaterializedOnDemand(t *testing.T) {
	w, _ := workloads.ByName("gawk")
	cfg := cfgSS10()
	m := New(buildWorkload(t, w, true, gcsafe.ModeSafe, cfg), Options{Config: cfg, Input: w.Input})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(m.stack); got > 64<<10 {
		t.Errorf("gawk materialized %d bytes of stack, want at most %d", got, 64<<10)
	}
}

// TestWorkerStackOverflowFault overflows a worker thread's own stack
// segment on a four-thread machine: the worker's AdjSP faults at the
// bottom of its segment, not at the bottom of the whole stack.
func TestWorkerStackOverflowFault(t *testing.T) {
	src := `
int deep(int n) {
    int pad[200];
    pad[0] = n;
    return deep(pad[0] + 1);
}
int thread1() { return 0; }
int thread2() { return deep(0); }
int thread3() { return 0; }
int main() { join_threads(); return 0; }
`
	prog := mustCompile(t, mustParseSrc(t, src), false)
	m := New(prog, Options{Config: cfgSS10(), MaxInstrs: 100_000_000, Threads: 4, SchedSeed: 7})
	res, err := m.Run()
	checkStackFault(t, res, err, "deep", 0, "stack overflow (sp=0x3ff3fd04)", 4257)
}

func checkStackFault(t *testing.T, res *Result, err error, fn string, pc int, msg string, instrs uint64) {
	t.Helper()
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want a *FaultError", err)
	}
	if fe.Fn != fn || fe.PC != pc || fe.Err.Error() != msg {
		t.Errorf("fault = %s at pc %d: %q; want %s at pc %d: %q", fe.Fn, fe.PC, fe.Err, fn, pc, msg)
	}
	if res == nil || res.Instrs != instrs {
		t.Errorf("result = %+v, want Instrs %d", res, instrs)
	}
}

func TestInstructionBudgetFault(t *testing.T) {
	src := `int main() { for (;;) {} return 0; }`
	file := mustParseSrc(t, src)
	prog := mustCompile(t, file, true)
	_, err := Run(prog, Options{Config: cfgSS10(), MaxInstrs: 10_000})
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("err = %v", err)
	}
}

func TestTooManyThreadsForTheStack(t *testing.T) {
	prog := mustCompile(t, mustParseSrc(t, `int main() { return 0; }`), true)
	for _, n := range []int{1 << 9, 1 << 32} {
		_, err := Run(prog, Options{Config: cfgSS10(), Threads: n})
		if err == nil || !strings.Contains(err.Error(), "bytes of stack each") {
			t.Errorf("Threads %d: err = %v, want the stack-segment error", n, err)
		}
	}
}

func TestWildPointerFaults(t *testing.T) {
	src := `int main() { int *p = (int *)0x7778; return *p; }`
	file := mustParseSrc(t, src)
	prog := mustCompile(t, file, false)
	_, err := Run(prog, Options{Config: cfgSS10()})
	if err == nil || !strings.Contains(err.Error(), "unmapped") {
		t.Fatalf("err = %v", err)
	}
}

func TestBadIndirectCallFaults(t *testing.T) {
	src := `
int main() {
    int (*f)(int) = (int (*)(int))9999;
    return f(1);
}
`
	file := mustParseSrc(t, src)
	prog := mustCompile(t, file, false)
	_, err := Run(prog, Options{Config: cfgSS10()})
	if err == nil || !strings.Contains(err.Error(), "invalid function id") {
		t.Fatalf("err = %v", err)
	}
}

func TestBaseOnlyHeapMode(t *testing.T) {
	// A program that stores only base pointers in the heap works in the
	// Extensions-section collector mode, even under heavy collection.
	src := `
struct node { int v; struct node *next; };
int main() {
    struct node *head = 0;
    int i;
    for (i = 0; i < 200; i++) {
        struct node *n = (struct node *)GC_malloc(sizeof(struct node));
        n->v = i;
        n->next = head;   /* base pointer into the heap: allowed */
        head = n;
        GC_malloc(64);
    }
    int s = 0;
    for (; head; head = head->next) s += head->v;
    print_int(s);
    return 0;
}
`
	file := mustParseSrc(t, src)
	prog := mustCompile(t, file, true)
	res, err := Run(prog, Options{
		Config: cfgSS10(), Validate: true, BaseOnlyHeap: true, TriggerBytes: 4 << 10,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Output != "19900" {
		t.Fatalf("output = %q", res.Output)
	}
	if res.GCStats.Collections == 0 {
		t.Fatal("no collections; mode untested")
	}
}

// helpers

func mustParseSrc(t *testing.T, src string) *ast.File {
	t.Helper()
	f, err := parser.Parse("rt.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f
}

func mustCompile(t *testing.T, f *ast.File, optimize bool) *machine.Program {
	t.Helper()
	prog, err := codegen.Compile(f, codegen.Options{Optimize: optimize, Machine: cfgSS10()})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

func cfgSS10() machine.Config { return machine.SPARCstation10() }

func TestMisalignedAccessFaults(t *testing.T) {
	src := `
int main() {
    char *p = (char *)GC_malloc(16);
    int *q = (int *)(p + 1);     /* misaligned */
    return *q;
}
`
	file := mustParseSrc(t, src)
	prog := mustCompile(t, file, false)
	_, err := Run(prog, Options{Config: cfgSS10()})
	if err == nil || !strings.Contains(err.Error(), "misaligned") {
		t.Fatalf("err = %v", err)
	}
}

func TestHalfwordAccess(t *testing.T) {
	runBoth(t, `
int main() {
    short *h = (short *)GC_malloc(8);
    h[0] = -5;
    h[1] = 300;
    unsigned short *u = (unsigned short *)h;
    print_int(h[0]);
    print_int(u[1]);
    print_int(h[0] + h[1]);
    return 0;
}
`, "-5300295")
}

func TestGlobalPointersAreRoots(t *testing.T) {
	// A heap object referenced only from the static data segment survives.
	src := `
char *keeper;
int main() {
    keeper = (char *)GC_malloc(64);
    keeper[0] = 'G';
    GC_gcollect();
    GC_malloc(1000);
    GC_gcollect();
    putchar(keeper[0]);
    return 0;
}
`
	file := mustParseSrc(t, src)
	prog := mustCompile(t, file, true)
	res, err := Run(prog, Options{Config: cfgSS10(), Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "G" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestConservativeIntRetention(t *testing.T) {
	// An integer that happens to equal a heap address retains the object —
	// the defining property (and cost) of conservative collection.
	src := `
unsigned disguised;
int main() {
    char *p = (char *)GC_malloc(128);
    p[0] = 'R';
    disguised = (unsigned)p;   /* benign round trip, per the paper */
    p = 0;
    GC_gcollect();
    char *back = (char *)disguised;
    putchar(back[0]);
    return 0;
}
`
	file := mustParseSrc(t, src)
	prog := mustCompile(t, file, false)
	res, err := Run(prog, Options{Config: cfgSS10(), Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "R" {
		t.Fatalf("output = %q", res.Output)
	}
}
