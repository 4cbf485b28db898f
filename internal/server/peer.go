package server

import (
	"context"
	"encoding/json"
	"net/http"
	"time"

	"gcsafety/internal/artifact"
	"gcsafety/internal/cluster"
	"gcsafety/internal/pipeline"
)

// peerRung is the third rung of the pipeline's ladder — local memory,
// local disk, owning peer, local walk — for every artifact the daemon
// serves: attempted only for keys another node owns, bounded by the
// peering timeout and circuit breaker, and degrading to the local walk on
// any failure (availability over dedup). The owner answers through its
// own ladder, so concurrent requests for one key across the cluster
// coalesce onto one computation there. An artifact's owner is its home
// key's (a run's home is its program's key). The recipe a peer sends
// names the artifact in the public vocabulary; the owner re-derives the
// key from it.
type peerRung struct{ s *Server }

// Fetch asks home's owning peer for the artifact; false means walk
// locally — because this node owns home, peering is off, or the owner
// could not serve it (counted as a fallback in the cluster stats).
func (p peerRung) Fetch(ctx context.Context, home, key artifact.Key, rec *pipeline.Recipe) (any, int64, bool) {
	s := p.s
	if s.peering == nil {
		return nil, 0, false
	}
	resp, remote, err := s.peering.Fetch(ctx, home, key, rec)
	if !remote || err != nil {
		return nil, 0, false
	}
	v, size, err := s.codec.Decode(resp.CodecKind, resp.Payload)
	if err != nil {
		// The peer served bytes our codec refuses: as unservable as a
		// corrupt disk entry. Count it and fall back to the walk.
		s.peering.NoteDecodeError()
		return nil, 0, false
	}
	return v, size, true
}

// Computed counts the work this node did: the compiles and annotations
// the stampede and cluster gates are stated in, and the run and heap
// metrics of a computed run. When another node owns home, it offers
// that node the artifact, best-effort and asynchronous: the placement
// repair after a fallback. The push rides a detached context (the
// triggering request may already be gone) that still carries its fault
// set, so chaos suites can exercise cluster.peer.put.
func (p peerRung) Computed(ctx context.Context, home, key artifact.Key, rec *pipeline.Recipe, v any) {
	s := p.s
	switch rec.Stage {
	case pipeline.StageAnnotate:
		s.annotations.Add(1)
	case pipeline.StageExecute:
		res, err := pipeline.Outcome(v)
		if res != nil {
			s.metrics.runs.record(res.Instrs, res.Cycles, res.GCStats, err != nil)
			if snap := res.Snapshot; snap != nil {
				s.metrics.heap.record(len(snap.Objects), snap.TotalBytes(), snap.Epoch, time.Duration(snap.CaptureNs))
			}
		}
	default:
		s.compiles.Add(1)
	}
	if s.peering == nil || key == "" {
		return
	}
	if _, self := s.peering.Owner(home); self {
		return
	}
	kind, payload, ok := s.codec.Encode(key, v)
	if !ok {
		return
	}
	pctx := context.WithoutCancel(ctx)
	go func() { _ = s.peering.Push(pctx, home, key, kind, payload) }()
}

// handlePeerGet serves /v1/peer/get: get-or-compute an artifact this
// node owns, returning it in disk-codec wire form. The pipeline
// re-derives the key from the recipe and refuses a mismatch — a peer
// cannot make this node file an artifact under a key that does not
// describe it — and a run's step budget must lie within this node's
// ceiling, as a public request's is clamped to it.
func (s *Server) handlePeerGet(w http.ResponseWriter, r *http.Request) error {
	if s.peering == nil {
		return errf(http.StatusNotFound, "this node is not clustered")
	}
	var req cluster.GetRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	var rec pipeline.Recipe
	if err := json.Unmarshal(req.Recipe, &rec); err != nil {
		return errf(http.StatusBadRequest, "bad recipe: %v", err)
	}
	if rec.Stage == pipeline.StageExecute && (rec.MaxSteps == 0 || rec.MaxSteps > s.cfg.MaxSteps) {
		return errf(http.StatusBadRequest, "max_steps %d out of range (max %d)", rec.MaxSteps, s.cfg.MaxSteps)
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RunTimeout)
	defer cancel()
	key := artifact.Key(req.Key)
	v, hit, err := s.pipeline.Serve(ctx, key, &rec)
	if err != nil {
		return requestError(err, true)
	}
	kind, payload, ok := s.codec.Encode(key, v)
	if !ok {
		return errf(http.StatusUnprocessableEntity, "the %s artifact is not transferable", rec.Stage)
	}
	writeJSON(w, http.StatusOK, cluster.GetResponse{CodecKind: kind, Payload: payload, CacheHit: hit})
	return nil
}

// handlePeerPut serves /v1/peer/put: accept an artifact computed
// elsewhere for a key this node owns. The payload is revalidated by the
// codec before it enters the cache; undecodable offers are refused.
func (s *Server) handlePeerPut(w http.ResponseWriter, r *http.Request) error {
	if s.peering == nil {
		return errf(http.StatusNotFound, "this node is not clustered")
	}
	var req cluster.PutRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	if req.Key == "" {
		return errf(http.StatusBadRequest, "missing key")
	}
	v, size, err := s.codec.Decode(req.CodecKind, req.Payload)
	if err != nil {
		return errf(http.StatusUnprocessableEntity, "artifact does not decode: %v", err)
	}
	s.cache.Put(artifact.Key(req.Key), v, size)
	writeJSON(w, http.StatusOK, cluster.PutResponse{Stored: true})
	return nil
}

// PeerUpdateRequest is the admin rebalance request: replace the member
// list (self is always retained).
type PeerUpdateRequest struct {
	Peers []string `json:"peers"`
}

// PeerUpdateResponse echoes the resulting membership.
type PeerUpdateResponse struct {
	Members []string `json:"members"`
}

// handlePeerUpdate serves /v1/peer/update: the live-rebalance path for
// operators replacing a failed node or growing the cluster. Ownership
// moves only for keys in the changed arcs (consistent hashing); nothing
// is transferred eagerly — artifacts re-home on their next request.
func (s *Server) handlePeerUpdate(w http.ResponseWriter, r *http.Request) error {
	if s.peering == nil {
		return errf(http.StatusNotFound, "this node is not clustered")
	}
	var req PeerUpdateRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	s.peering.UpdatePeers(req.Peers)
	writeJSON(w, http.StatusOK, PeerUpdateResponse{Members: s.peering.Members()})
	return nil
}
