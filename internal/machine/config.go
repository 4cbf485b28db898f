package machine

// Config describes one target machine. Three canned configurations stand
// in for the paper's measurement platforms. The absolute cycle numbers are
// nominal; only the ratios between compilation modes matter, as in the
// paper ("we give slowdown percentages relative to the unpreprocessed
// optimized version").
type Config struct {
	Name string
	// NumRegs is the number of general-purpose allocatable registers.
	// SPARC's windowed files give gcc many locals; the Pentium has
	// "substantially fewer registers than the SPARC-based machines".
	NumRegs int
	// TwoOperand models x86-style destructive ALU instructions: when the
	// destination differs from the first source an extra register move is
	// needed ("On machines with only two operand instructions, it may also
	// directly add a small amount of additional code.")
	TwoOperand bool
	// LoadIndexed allows reg+reg addressing in loads and stores — "a free
	// addition in the load instruction (e.g. SPARC)".
	LoadIndexed bool
	// Costs gives cycles per instruction class.
	Costs CostModel
}

// CostModel holds nominal cycle costs.
type CostModel struct {
	ALU      uint64 // add/sub/logical/compare/mov
	Mul      uint64
	Div      uint64
	Load     uint64
	Store    uint64
	Branch   uint64 // taken or not; includes jmp
	CallRet  uint64 // call/ret overhead each
	SPAdjust uint64
}

// CostOf returns the cycle cost of one instruction.
func (c *Config) CostOf(op Op) uint64 {
	m := &c.Costs
	switch {
	case op == Label, op == Nop, op == KeepLive:
		return 0
	case op == Mul:
		return m.Mul
	case op == Div, op == Divu, op == Rem, op == Remu:
		return m.Div
	case op.IsLoad(), op == LdSP:
		return m.Load
	case op.IsStore(), op == StSP, op == Arg:
		return m.Store
	case op == Jmp, op == Bz, op == Bnz:
		return m.Branch
	case op == Call, op == CallR, op == Ret:
		return m.CallRet
	case op == AdjSP:
		return m.SPAdjust
	case op == LeaSP:
		return m.ALU
	default:
		return m.ALU
	}
}

// SPARCstation2 models the Weitek-processor SPARCstation 2 (SunOS 4.1.4):
// a scalar early SPARC with slow memory operations relative to ALU work.
func SPARCstation2() Config {
	return Config{
		Name:        "SPARCstation 2",
		NumRegs:     12,
		TwoOperand:  false,
		LoadIndexed: true,
		Costs: CostModel{
			ALU: 1, Mul: 5, Div: 18, Load: 2, Store: 3,
			Branch: 2, CallRet: 6, SPAdjust: 1,
		},
	}
}

// SPARCstation10 models the SPARCstation 10 (Solaris 2.5): faster memory
// hierarchy, same register model.
func SPARCstation10() Config {
	return Config{
		Name:        "SPARCstation 10",
		NumRegs:     12,
		TwoOperand:  false,
		LoadIndexed: true,
		Costs: CostModel{
			ALU: 1, Mul: 4, Div: 12, Load: 1, Store: 2,
			Branch: 1, CallRet: 4, SPAdjust: 1,
		},
	}
}

// Pentium90 models the Pentium 90 (Linux 1.x): two-operand ISA with few
// registers but cheap memory operands.
func Pentium90() Config {
	return Config{
		Name:        "Pentium 90",
		NumRegs:     8,
		TwoOperand:  true,
		LoadIndexed: true,
		Costs: CostModel{
			ALU: 1, Mul: 9, Div: 25, Load: 1, Store: 1,
			Branch: 1, CallRet: 3, SPAdjust: 1,
		},
	}
}

// paperMachines lists the three paper machines in presentation order,
// under the short names the CLIs and the daemon accept.
var paperMachines = []struct {
	short  string
	config func() Config
}{
	{"ss2", SPARCstation2},
	{"ss10", SPARCstation10},
	{"p90", Pentium90},
}

// Configs returns the three paper machines in presentation order.
func Configs() []Config {
	out := make([]Config, len(paperMachines))
	for i, m := range paperMachines {
		out[i] = m.config()
	}
	return out
}

// ByName returns the paper machine with the given short name: "ss2",
// "ss10" or "p90".
func ByName(short string) (Config, bool) {
	for _, m := range paperMachines {
		if m.short == short {
			return m.config(), true
		}
	}
	return Config{}, false
}

// ShortName returns the configuration's short name ("ss2", "ss10" or
// "p90"), or its full Name for a machine that is not one of the paper's.
func (c Config) ShortName() string {
	for _, m := range paperMachines {
		if m.config().Name == c.Name {
			return m.short
		}
	}
	return c.Name
}
