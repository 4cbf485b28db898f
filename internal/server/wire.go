package server

import (
	"fmt"

	"gcsafety/internal/artifact"
	"gcsafety/internal/machine"
	"gcsafety/internal/pipeline"
)

// Wire forms of the cached artifacts for the disk tier. The in-memory
// types (annotated, compiled) keep unexported fields; these exported
// mirrors exist so encoding/gob can see them, and they carry the
// accounted cache size so a restored entry charges the LRU budget
// exactly like a freshly computed one.

const (
	kindAnnotate = "annotate/v1"
	kindCompile  = "compile/v1"
)

type wireAnnotated struct {
	Output     string
	Warnings   []string
	Inserted   int
	Suppressed int
	Temps      int
	Elided     int
	Size       int64
}

type wireCompiled struct {
	Prog *machine.Program
	Size int64
}

// artifactCodec composes the disk codec for the shared artifact cache:
// the server's whole-product annotate/compile kinds plus the pipeline's
// per-stage compiled-program and execution kinds, registered against one
// registry so a single disk directory persists every family across
// restarts.
func artifactCodec() artifact.DiskCodec {
	reg := artifact.NewCodecRegistry()
	reg.Register(kindAnnotate, artifact.Codec{Encode: encodeAnnotated, Decode: decodeAnnotated})
	reg.Register(kindCompile, artifact.Codec{Encode: encodeCompiled, Decode: decodeCompiled})
	pipeline.RegisterWire(reg)
	return reg.DiskCodec()
}

func encodeAnnotated(key artifact.Key, v any) ([]byte, bool) {
	a, ok := v.(*annotated)
	if !ok {
		return nil, false
	}
	return artifact.GobBytes(&wireAnnotated{
		Output:     a.output,
		Warnings:   a.warnings,
		Inserted:   a.inserted,
		Suppressed: a.suppressed,
		Temps:      a.temps,
		Elided:     a.elided,
		Size:       a.size,
	})
}

func decodeAnnotated(data []byte) (any, int64, error) {
	var w wireAnnotated
	if err := artifact.GobDecode(data, &w); err != nil {
		return nil, 0, err
	}
	return &annotated{
		output:     w.Output,
		warnings:   w.Warnings,
		inserted:   w.Inserted,
		suppressed: w.Suppressed,
		temps:      w.Temps,
		elided:     w.Elided,
		size:       w.Size,
	}, w.Size, nil
}

func encodeCompiled(key artifact.Key, v any) ([]byte, bool) {
	c, ok := v.(*compiled)
	if !ok {
		return nil, false
	}
	return artifact.GobBytes(&wireCompiled{Prog: c.prog, Size: c.accounted})
}

func decodeCompiled(data []byte) (any, int64, error) {
	var w wireCompiled
	if err := artifact.GobDecode(data, &w); err != nil {
		return nil, 0, err
	}
	if w.Prog == nil || len(w.Prog.Funcs) == 0 {
		return nil, 0, fmt.Errorf("compile artifact with no code")
	}
	return &compiled{prog: w.Prog, size: w.Prog.Size(), accounted: w.Size}, w.Size, nil
}
