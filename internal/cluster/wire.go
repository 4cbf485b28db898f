package cluster

import "encoding/json"

// Wire types of the peer protocol. Artifacts travel between nodes in the
// same (codec kind, payload) byte form the disk tier persists, so one
// codec registry serves both surfaces and every transferred artifact is
// revalidated by the receiver's decoder before it enters the cache.

// GetRequest asks the owning peer to get-or-compute one artifact.
// Alongside the content-addressed key it carries the recipe, because a
// key is a digest: the owner can only compute the artifact from the
// inputs, not from their hash. The owner independently recomputes the
// key from the recipe and refuses a mismatch, so a confused (or
// malicious) peer cannot poison another node's cache under a wrong key.
type GetRequest struct {
	// Key is the artifact cache key (hex SHA-256, see internal/artifact).
	Key string `json:"key"`
	// Recipe names the artifact by its inputs (a pipeline.Recipe: the
	// stage, the translation unit and the public request's treatment).
	Recipe json.RawMessage `json:"recipe"`
}

// GetResponse returns the artifact in disk-codec wire form. The
// requester's decoder revalidates it and gives its LRU charge.
type GetResponse struct {
	// CodecKind selects the decoder (e.g. "pipeline.prog/v1").
	CodecKind string `json:"codec_kind"`
	// Payload is the encoded artifact (base64 on the wire via encoding/json).
	Payload []byte `json:"payload"`
	// CacheHit reports whether the owner served the artifact from its
	// cache (memory or disk) rather than computing it.
	CacheHit bool `json:"cache_hit"`
}

// PutRequest offers an artifact to its owning peer: the availability
// repair path. When a node computed a key it does not own (because the
// owner was unreachable at the time), it pushes the result to the owner
// best-effort so the cluster converges back to one copy-of-record per
// key once the owner returns.
type PutRequest struct {
	Key       string `json:"key"`
	CodecKind string `json:"codec_kind"`
	Payload   []byte `json:"payload"`
}

// PutResponse acknowledges a peer put.
type PutResponse struct {
	Stored bool `json:"stored"`
}
