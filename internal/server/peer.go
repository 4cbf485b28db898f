package server

import (
	"context"
	"encoding/json"
	"net/http"

	"gcsafety/internal/artifact"
	"gcsafety/internal/cluster"
)

// The peer protocol: how a clustered gcsafed asks an artifact's owning
// node to get-or-compute it. The fallback ladder for every cacheable
// artifact becomes
//
//	local memory → local disk → owning peer → local compute
//
// where the peer step is attempted only for keys another node owns, is
// bounded by the peering timeout and circuit breaker, and degrades to
// local compute on any failure — availability over dedup. The owner side
// runs the request through its own cache.GetOrCompute, so concurrent
// requests for one key across the whole cluster coalesce onto a single
// computation on the owner (cluster-wide singleflight). The recipe a peer
// sends is the public request itself, from which the owner recomputes
// the key.

// Artifact family names on the peer wire.
const (
	familyAnnotate = "annotate"
	familyCompile  = "compile"
)

// noForwardKey marks contexts of peer-originated work: the owner must
// compute locally, never forward again, or a stale ring could bounce a
// request between nodes forever.
type noForwardKey struct{}

func noForward(ctx context.Context) context.Context {
	return context.WithValue(ctx, noForwardKey{}, true)
}

func forwardingAllowed(ctx context.Context) bool {
	v, _ := ctx.Value(noForwardKey{}).(bool)
	return !v
}

// peerFetch tries the owning-peer rung of the ladder: resolve the owner
// for key and, when it is a remote peer, ask it to get-or-compute.
// ok == false means "compute locally" — because this node owns the key,
// peering is off, the work is already peer-originated, or the owner was
// unreachable (counted as a fallback in the cluster stats).
func (s *Server) peerFetch(ctx context.Context, key artifact.Key, family string, recipe any) (v any, size int64, ok bool) {
	if s.peering == nil || !forwardingAllowed(ctx) {
		return nil, 0, false
	}
	resp, remote, err := s.peering.Fetch(ctx, key, family, recipe)
	if !remote || err != nil {
		return nil, 0, false
	}
	v, size, derr := s.codec.Decode(resp.CodecKind, resp.Payload)
	if derr != nil {
		// The peer served bytes our codec refuses: as unservable as a
		// corrupt disk entry. Count it and fall back to computing.
		s.peering.NoteDecodeError()
		return nil, 0, false
	}
	return v, size, true
}

// peerRepair pushes a locally computed artifact to its owning peer,
// best-effort and asynchronous: the availability-repair path after a
// fallback compute. The push rides a detached context (the triggering
// request may already be gone) that still carries its fault set, so
// chaos suites can exercise cluster.peer.put.
func (s *Server) peerRepair(ctx context.Context, key artifact.Key, v any) {
	if s.peering == nil || !forwardingAllowed(ctx) {
		return
	}
	if _, self := s.peering.Owner(key); self {
		return
	}
	kind, payload, ok := s.codec.Encode(key, v)
	if !ok {
		return
	}
	_, size, err := s.codec.Decode(kind, payload)
	if err != nil {
		return
	}
	pctx := context.WithoutCancel(ctx)
	go func() { _ = s.peering.Push(pctx, key, kind, payload, size) }()
}

// handlePeerGet serves /v1/peer/get: get-or-compute an artifact this
// node owns, returning it in disk-codec wire form. The key is recomputed
// from the recipe and must match — a peer cannot make this node file an
// artifact under a key that does not describe it.
func (s *Server) handlePeerGet(w http.ResponseWriter, r *http.Request) error {
	if s.peering == nil {
		return errf(http.StatusNotFound, "this node is not clustered")
	}
	var req cluster.GetRequest
	if err := decode(r, &req); err != nil {
		return err
	}
	ctx := noForward(r.Context())
	key := artifact.Key(req.Key)
	var (
		v   any
		hit bool
	)
	switch req.Family {
	case familyAnnotate:
		var ar AnnotateRequest
		if err := json.Unmarshal(req.Recipe, &ar); err != nil {
			return errf(http.StatusBadRequest, "bad annotate recipe: %v", err)
		}
		_, ak, err := ar.resolve()
		if err != nil {
			return err
		}
		if ak != key {
			return errf(http.StatusBadRequest, "recipe hashes to %s, request says %s", ak, req.Key)
		}
		a, h, err := s.annotate(ctx, &ar)
		if err != nil {
			return err
		}
		v, hit = a, h
	case familyCompile:
		var cr CompileRequest
		if err := json.Unmarshal(req.Recipe, &cr); err != nil {
			return errf(http.StatusBadRequest, "bad compile recipe: %v", err)
		}
		opts, ck, err := cr.resolve()
		if err != nil {
			return err
		}
		if ck != key {
			return errf(http.StatusBadRequest, "recipe hashes to %s, request says %s", ck, req.Key)
		}
		c, h, err := s.compile(ctx, &cr, opts, key)
		if err != nil {
			return err
		}
		v, hit = c, h
	default:
		return errf(http.StatusBadRequest, "unknown artifact family %q", req.Family)
	}
	kind, payload, ok := s.codec.Encode(key, v)
	if !ok {
		return errf(http.StatusInternalServerError, "artifact for %s is not encodable", req.Family)
	}
	_, size, err := s.codec.Decode(kind, payload)
	if err != nil {
		return errf(http.StatusInternalServerError, "artifact for %s does not round-trip: %v", req.Family, err)
	}
	writeJSON(w, http.StatusOK, cluster.GetResponse{
		CodecKind: kind,
		Payload:   payload,
		Size:      size,
		CacheHit:  hit,
	})
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
