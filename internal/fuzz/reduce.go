package fuzz

import (
	"strings"

	"gcsafety/internal/cc/parser"
)

// Test-case reduction: before a failing program is reported it is shrunk
// by statement deletion, delta-debugging style. The generator emits one
// statement per line (and braces on their own or on statement lines), so
// line deletion is statement/expression deletion: dropping a call site,
// dropping a whole op function, dropping a helper nobody calls. Candidates
// that no longer parse are rejected without consulting the predicate, so
// the reducer can blindly try any deletion.

// Reduce shrinks src to a (locally) minimal program that still satisfies
// pred. pred must hold for src itself; if it does not, src is returned
// unchanged. pred is only ever called with programs that parse.
func Reduce(src string, pred func(candidate string) bool) string {
	if !pred(src) {
		return src
	}
	lines := strings.Split(src, "\n")
	// ddmin over line chunks: repeatedly try to delete runs of lines,
	// halving the run length until single-line granularity, and restart
	// whenever a pass made progress (a deletion can unlock further ones —
	// removing a call site makes its op function deletable).
	for {
		progress := false
		for chunk := len(lines) / 2; chunk >= 1; chunk /= 2 {
			for start := 0; start+chunk <= len(lines); {
				cand := make([]string, 0, len(lines)-chunk)
				cand = append(cand, lines[:start]...)
				cand = append(cand, lines[start+chunk:]...)
				text := strings.Join(cand, "\n")
				if parses(text) && pred(text) {
					lines = cand
					progress = true
				} else {
					start += chunk
				}
			}
		}
		if !progress {
			break
		}
	}
	return strings.Join(lines, "\n")
}

func parses(src string) bool {
	_, err := parser.Parse("reduce.c", src)
	return err == nil
}

// CountLines reports the number of non-blank source lines — the measure of
// reduction quality used in reports.
func CountLines(src string) int {
	n := 0
	for _, l := range strings.Split(src, "\n") {
		if strings.TrimSpace(l) != "" {
			n++
		}
	}
	return n
}

// ReduceViolation minimizes a program for which the matrix reported a
// violation (or an unsafe failure, when hunting those): the predicate
// re-runs the single failing treatment and keeps the candidate when it
// still disagrees with the model in the same way (fault vs divergence).
// The model output of a candidate is not re-derivable from text alone, so
// the predicate compares against a fresh generation-free criterion: a
// fault must stay a fault with the same fault class; a divergence must
// stay a divergence against the reference (-g unannotated) build's output.
func ReduceViolation(p *Program, bad TreatmentResult) string {
	wasReclamation := IsReclamationFault(bad.Err)
	wasFault := bad.Err != nil
	pred := func(candidate string) bool {
		cp := &Program{Label: p.Label + " (reduced)", Source: candidate}
		r, err := RunTreatment(cp, bad.Treatment)
		if err != nil {
			return false
		}
		if wasFault {
			if r.Err == nil {
				return false
			}
			if wasReclamation {
				return IsReclamationFault(r.Err)
			}
			return true
		}
		// Divergence: compare against the debuggable unannotated build,
		// which stands in for the model on reduced candidates.
		ref, err := RunTreatment(cp, cell(bad.Machine, "", false, false))
		if err != nil || ref.Err != nil {
			return false
		}
		return r.Err == nil && r.Output != ref.Output
	}
	return Reduce(p.Source, pred)
}
