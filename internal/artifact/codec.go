package artifact

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"
)

// Codec handles one wire kind of the disk tier: a matched encoder/decoder
// pair contributed by whatever package owns the artifact type.
type Codec struct {
	// Encode serializes v, or reports ok=false when v is not this codec's
	// type — the registry then probes the next registered codec, and a
	// value no codec claims simply stays memory-only.
	Encode func(key Key, v any) (data []byte, ok bool)
	// Decode reverses Encode, reproducing the value and the size it should
	// be accounted at in the LRU budget.
	Decode func(data []byte) (v any, size int64, err error)
}

// CodecRegistry composes codecs contributed by independent packages into
// the single DiskCodec a Cache accepts. The server registers its
// whole-product artifact kinds and internal/pipeline its per-stage
// compiled-program kinds against the same registry, so one disk tier
// persists both without either package knowing the other's types.
//
// Registration is expected at setup time, before the cache serves
// traffic, but is safe under concurrency throughout.
type CodecRegistry struct {
	mu     sync.RWMutex
	kinds  []string // probe order = registration order
	codecs map[string]Codec
}

// NewCodecRegistry returns an empty registry.
func NewCodecRegistry() *CodecRegistry {
	return &CodecRegistry{codecs: map[string]Codec{}}
}

// Register adds the codec for one wire kind. Kinds are versioned by
// convention ("compile/v1"); registering the same kind twice or an empty
// kind is a programming error and panics.
func (r *CodecRegistry) Register(kind string, c Codec) {
	if kind == "" {
		panic("artifact: Register with empty kind")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.codecs[kind]; dup {
		panic(fmt.Sprintf("artifact: duplicate codec kind %q", kind))
	}
	r.kinds = append(r.kinds, kind)
	r.codecs[kind] = c
}

// DiskCodec adapts the registry to the Cache's codec interface: Encode
// probes registered codecs in registration order and stamps the winning
// kind; Decode dispatches on the stored kind.
func (r *CodecRegistry) DiskCodec() DiskCodec {
	return DiskCodec{Encode: r.encode, Decode: r.decode}
}

func (r *CodecRegistry) encode(key Key, v any) (string, []byte, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, kind := range r.kinds {
		if data, ok := r.codecs[kind].Encode(key, v); ok {
			return kind, data, true
		}
	}
	return "", nil, false
}

func (r *CodecRegistry) decode(kind string, data []byte) (any, int64, error) {
	r.mu.RLock()
	c, ok := r.codecs[kind]
	r.mu.RUnlock()
	if !ok {
		return nil, 0, fmt.Errorf("unknown artifact kind %q", kind)
	}
	return c.Decode(data)
}

// GobBytes is the gob encoding of v for a Codec's Encode; ok is false
// when v does not encode.
func GobBytes(v any) ([]byte, bool) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, false
	}
	return buf.Bytes(), true
}

// GobDecode reverses GobBytes into v.
func GobDecode(data []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}
