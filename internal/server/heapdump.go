package server

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"time"

	"gcsafety/internal/artifact"
	"gcsafety/internal/heapdump"
	"gcsafety/internal/interp"
)

// HeapdumpRequest compiles and executes a program with allocation-site
// profiling, then returns the end-of-run heap snapshot — the service form
// of ccrun -heap-profile. All RunRequest treatment knobs apply.
type HeapdumpRequest struct {
	RunRequest
	// MaxObjects bounds the snapshot (clamped to the server ceiling);
	// larger heaps come back with Truncated set.
	MaxObjects int `json:"max_objects"`
	// Report asks for the rendered forensics report (top retainers by
	// retained size with root paths) alongside the raw snapshot.
	Report bool `json:"report"`
	// TopN bounds the report's retainer table (default 10).
	TopN int `json:"top_n"`
}

// HeapdumpResponse carries the snapshot. A program fault or checker
// violation is data here like in /v1/run: the snapshot's Trigger and
// Reason describe it, and the capture still happened.
type HeapdumpResponse struct {
	Snapshot    *heapdump.Snapshot `json:"snapshot"`
	Report      string             `json:"report,omitempty"`
	LiveObjects int                `json:"live_objects"`
	LiveBytes   uint64             `json:"live_bytes"`
	CacheHit    bool               `json:"cache_hit"`
}

func (s *Server) handleHeapdump(w http.ResponseWriter, r *http.Request) error {
	var req HeapdumpRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	opts, ckey, err := req.resolve()
	if err != nil {
		return err
	}
	if req.Threads < 0 || req.Threads > maxRunThreads {
		return errf(http.StatusBadRequest, "threads %d out of range (max %d)", req.Threads, maxRunThreads)
	}
	maxObjects := s.cfg.MaxDumpObjects
	if req.MaxObjects > 0 && req.MaxObjects < maxObjects {
		maxObjects = req.MaxObjects
	}
	c, _, err := s.compile(r.Context(), &req.CompileRequest, opts, ckey)
	if err != nil {
		return err
	}
	ctx, cancel := s.runContext(r.Context(), req.TimeoutMs)
	defer cancel()
	run := s.runOptions(r.Context(), &req.RunRequest, opts.Machine)
	run.HeapProfile = true
	// Execution is deterministic, so the program, the run options and the
	// object bound fully determine the snapshot.
	key := artifact.NewKey("heapdump").Str(string(run.Key(ckey))).Int(int64(maxObjects)).Sum()
	v, hit, err := s.cache.GetOrCompute(ctx, key, func() (any, int64, error) {
		res, runErr := interp.RunContext(ctx, c.prog, run)
		if runErr != nil && (errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded)) {
			return nil, 0, runErr
		}
		if res != nil {
			s.metrics.runs.record(res.Instrs, res.Cycles, res.GCStats, runErr != nil)
		}
		if res == nil || res.Snapshot == nil {
			reason := "no result"
			if res != nil {
				reason = res.SnapshotErr
			}
			return nil, 0, errf(http.StatusInternalServerError, "heapdump capture failed: %s", reason)
		}
		snap := res.Snapshot
		snap.TruncateObjects(maxObjects)
		s.metrics.heap.record(len(snap.Objects), snap.TotalBytes(), snap.Epoch,
			time.Duration(snap.CaptureNs))
		return snap, snap.AccountedSize(), nil
	})
	if err != nil {
		return err
	}
	snap := v.(*heapdump.Snapshot)
	resp := HeapdumpResponse{
		Snapshot:    snap,
		LiveObjects: len(snap.Objects),
		LiveBytes:   snap.TotalBytes(),
		CacheHit:    hit,
	}
	if req.Report {
		topN := req.TopN
		if topN <= 0 {
			topN = 10
		}
		var b strings.Builder
		heapdump.Analyze(snap).RenderReport(&b, topN)
		resp.Report = b.String()
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}
