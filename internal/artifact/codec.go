package artifact

import (
	"bytes"
	"encoding/gob"
)

// GobBytes is the gob encoding of v for a DiskCodec's Encode; ok is false
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
