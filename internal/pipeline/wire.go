package pipeline

import (
	"errors"
	"fmt"

	"gcsafety/internal/artifact"
	"gcsafety/internal/gcsafe"
	"gcsafety/internal/interp"
	"gcsafety/internal/machine"
	"gcsafety/internal/peephole"
)

// Wire kinds for the stage artifacts that survive a process restart and
// travel between peers: the annotator's report (Annotate), the compiled
// programs (Optimize, Peephole) and the executions. The front-end
// artifacts — token streams, ASTs, IR — are pointer graphs that gob
// cannot round-trip, and they rebuild quickly, so the Annotate artifact
// crosses without its tree. They simply stay memory-only.
const (
	kindAnnotate = "pipeline.annotate/v1"
	kindProg     = "pipeline.prog/v1"
	kindPost     = "pipeline.post/v1"
	kindExec     = "pipeline.exec/v2"
)

// wireExec is a run's result and its error's text, with the two facts a
// served run's caller reads from the error: the step limit, and a failed
// pointer check's own text.
type wireExec struct {
	Res       *interp.Result
	Err       string
	StepLimit bool
	Check     *string
}

// runError is a run error decoded from the wire; it wraps
// interp.ErrInstrLimit, an *interp.CheckError, or nothing.
type runError struct {
	msg  string
	wrap error
}

func (e *runError) Error() string { return e.msg }
func (e *runError) Unwrap() error { return e.wrap }

// wireProg is a program and, under Peephole, what the postprocessor
// changed.
type wireProg struct {
	Prog  *machine.Program
	Stats peephole.Stats
}

// progAccountedSize seals a program about to be cached and returns its
// LRU-budget charge; the Optimize/Peephole stages and the decoder share
// it, so a disk-restored entry charges the budget exactly like a freshly
// computed one.
func progAccountedSize(p *machine.Program) int64 {
	p.Seal()
	return int64(p.Size())*40 + int64(len(p.Data)) + 256
}

// Codec is the byte form of the persistable stage artifacts, for a disk
// tier (gcsafed's) to carry them across restarts and the peer wire to
// carry them between nodes. A decoded artifact charges the LRU budget
// exactly like a freshly computed one.
func Codec() artifact.DiskCodec {
	return artifact.DiskCodec{Encode: encode, Decode: decode}
}

func encode(key artifact.Key, v any) (string, []byte, bool) {
	var kind string
	var w any
	switch v := v.(type) {
	case *annotated:
		r := *v.res
		r.File = nil
		kind, w = kindAnnotate, &r
	case *machine.Program:
		kind, w = kindProg, &wireProg{Prog: v}
	case *postprocessed:
		kind, w = kindPost, &wireProg{Prog: v.prog, Stats: v.stats}
	case *execution:
		x := &wireExec{Res: v.res}
		if v.err != nil {
			x.Err, x.StepLimit = v.err.Error(), errors.Is(v.err, interp.ErrInstrLimit)
			var ce *interp.CheckError
			if errors.As(v.err, &ce) {
				msg := ce.Err.Error()
				x.Check = &msg
			}
		}
		kind, w = kindExec, x
	default:
		return "", nil, false
	}
	data, ok := artifact.GobBytes(w)
	return kind, data, ok
}

func decode(kind string, data []byte) (any, int64, error) {
	switch kind {
	case kindAnnotate:
		a := &annotated{res: &gcsafe.Result{}}
		if err := artifact.GobDecode(data, a.res); err != nil {
			return nil, 0, err
		}
		return a, a.size(), nil
	case kindProg, kindPost:
		var w wireProg
		if err := artifact.GobDecode(data, &w); err != nil {
			return nil, 0, err
		}
		if w.Prog == nil || len(w.Prog.Funcs) == 0 {
			return nil, 0, fmt.Errorf("%s artifact with no code", kind)
		}
		if kind == kindProg {
			return w.Prog, progAccountedSize(w.Prog), nil
		}
		return &postprocessed{prog: w.Prog, stats: w.Stats}, progAccountedSize(w.Prog), nil
	case kindExec:
		var w wireExec
		if err := artifact.GobDecode(data, &w); err != nil {
			return nil, 0, err
		}
		x := &execution{res: w.Res}
		switch {
		case w.StepLimit:
			x.err = &runError{w.Err, interp.ErrInstrLimit}
		case w.Check != nil:
			x.err = &runError{w.Err, &interp.CheckError{Err: errors.New(*w.Check)}}
		case w.Err != "":
			x.err = &runError{msg: w.Err}
		}
		if x.res == nil && x.err == nil {
			return nil, 0, errors.New("execution artifact with no result")
		}
		return x, x.size(), nil
	}
	return nil, 0, fmt.Errorf("unknown artifact kind %q", kind)
}
