package server

import (
	"net/http"
	"strings"
	"time"

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
	x, err := s.execute(r, &req.RunRequest, true)
	if err != nil {
		return err
	}
	if x.res == nil || x.res.Snapshot == nil {
		reason := "no result"
		if x.res != nil {
			reason = x.res.SnapshotErr
		}
		return errf(http.StatusInternalServerError, "heapdump capture failed: %s", reason)
	}
	snap := x.res.Snapshot
	if !x.runHit {
		s.metrics.heap.record(len(snap.Objects), snap.TotalBytes(), snap.Epoch, time.Duration(snap.CaptureNs))
	}
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
		CacheHit:    x.runHit,
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
