package server

import (
	"net/http"
	"strings"

	"gcsafety/internal/heapdump"
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
// Reason describe it, and the capture still happened. cache_hit means
// this node's memory or disk held the run.
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
	sv, runErr, err := s.execute(r, &req.RunRequest, true)
	if err != nil {
		return err
	}
	res := sv.Result
	switch {
	case res == nil:
		// The run never started (the unit has no main): no heap to dump.
		return errf(http.StatusUnprocessableEntity, "heapdump: %v", runErr)
	case res.Snapshot == nil:
		return errf(http.StatusInternalServerError, "heapdump capture failed: %s", res.SnapshotErr)
	}
	snap := res.Snapshot
	// The snapshot is the cached run's, shared by every request for it:
	// truncation bounds a per-response copy.
	maxObjects := s.cfg.MaxDumpObjects
	if req.MaxObjects > 0 && req.MaxObjects < maxObjects {
		maxObjects = req.MaxObjects
	}
	snap = snap.TruncateObjects(maxObjects)
	resp := HeapdumpResponse{
		Snapshot:    snap,
		LiveObjects: len(snap.Objects),
		LiveBytes:   snap.TotalBytes(),
		CacheHit:    sv.RunHit,
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
