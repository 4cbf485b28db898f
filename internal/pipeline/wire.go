package pipeline

import (
	"fmt"

	"gcsafety/internal/artifact"
	"gcsafety/internal/interp"
	"gcsafety/internal/machine"
	"gcsafety/internal/peephole"
)

// Wire kinds for the stage artifacts that survive a process restart:
// the compiled programs (Optimize, Peephole) and the error-free
// executions. The front-end artifacts — token streams, ASTs, IR — are
// pointer graphs that gob cannot round-trip, and they rebuild quickly; a
// run error is an arbitrary value, and its run repeats to the same
// answer. They simply stay memory-only.
const (
	kindProg = "pipeline.prog/v1"
	kindPost = "pipeline.post/v1"
	kindExec = "pipeline.exec/v1"
)

type wireProg struct {
	Prog *machine.Program
}

type wirePost struct {
	Prog  *machine.Program
	Stats peephole.Stats
}

// progAccountedSize is the LRU-budget charge of a compiled program; the
// same formula the Optimize/Peephole stages use, so a disk-restored
// entry charges the budget exactly like a freshly computed one.
func progAccountedSize(p *machine.Program) int64 {
	return int64(p.Size())*40 + int64(len(p.Data)) + 256
}

// RegisterWire contributes the pipeline's persistable artifact kinds to
// a codec registry, letting a shared disk tier (gcsafed's) carry
// per-stage compiled programs and clean executions across restarts
// alongside the server's own whole-product artifacts.
func RegisterWire(reg *artifact.CodecRegistry) {
	reg.Register(kindProg, artifact.Codec{
		Encode: func(key artifact.Key, v any) ([]byte, bool) {
			p, ok := v.(*machine.Program)
			if !ok {
				return nil, false
			}
			return artifact.GobBytes(&wireProg{Prog: p})
		},
		Decode: func(data []byte) (any, int64, error) {
			var w wireProg
			if err := artifact.GobDecode(data, &w); err != nil {
				return nil, 0, err
			}
			if w.Prog == nil || len(w.Prog.Funcs) == 0 {
				return nil, 0, fmt.Errorf("pipeline program artifact with no code")
			}
			return w.Prog, progAccountedSize(w.Prog), nil
		},
	})
	reg.Register(kindPost, artifact.Codec{
		Encode: func(key artifact.Key, v any) ([]byte, bool) {
			p, ok := v.(*postprocessed)
			if !ok {
				return nil, false
			}
			return artifact.GobBytes(&wirePost{Prog: p.prog, Stats: p.stats})
		},
		Decode: func(data []byte) (any, int64, error) {
			var w wirePost
			if err := artifact.GobDecode(data, &w); err != nil {
				return nil, 0, err
			}
			if w.Prog == nil || len(w.Prog.Funcs) == 0 {
				return nil, 0, fmt.Errorf("pipeline postprocessed artifact with no code")
			}
			return &postprocessed{prog: w.Prog, stats: w.Stats}, progAccountedSize(w.Prog), nil
		},
	})
	reg.Register(kindExec, artifact.Codec{
		Encode: func(key artifact.Key, v any) ([]byte, bool) {
			x, ok := v.(*execution)
			if !ok || x.err != nil || x.res == nil {
				return nil, false
			}
			return artifact.GobBytes(x.res)
		},
		Decode: func(data []byte) (any, int64, error) {
			x := &execution{res: &interp.Result{}}
			if err := artifact.GobDecode(data, x.res); err != nil {
				return nil, 0, err
			}
			return x, x.size(), nil
		},
	})
}
