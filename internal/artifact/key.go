package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// A Key names one cache entry: the hex form of a SHA-256 digest over every
// input that influences the artifact. Two requests share an entry exactly
// when their keys collide, so the KeyBuilder must see *all* the inputs —
// source text, annotation options, machine, optimization level, peephole
// flag — and nothing volatile.
type Key string

// KeyBuilder accumulates the inputs of a content-addressed key. Every
// field is written length-prefixed (and bools/ints in fixed-width binary),
// so distinct field sequences can never produce the same digest by
// concatenation tricks ("ab"+"c" vs "a"+"bc"). The fields collect in one
// buffer that Sum digests at once: writing each field through a hash
// interface would allocate a copy of it.
type KeyBuilder struct {
	buf []byte
}

// NewKey starts a key for one artifact kind. The kind participates in the
// digest, so e.g. an "annotate" and a "compile" artifact of identical
// inputs occupy distinct entries.
func NewKey(kind string) *KeyBuilder {
	b := &KeyBuilder{buf: make([]byte, 0, 256)}
	return b.Str(kind)
}

// Str appends one string field.
func (b *KeyBuilder) Str(s string) *KeyBuilder {
	b.buf = binary.LittleEndian.AppendUint64(b.buf, uint64(len(s)))
	b.buf = append(b.buf, s...)
	return b
}

// Bool appends one boolean field.
func (b *KeyBuilder) Bool(v bool) *KeyBuilder {
	if v {
		b.buf = append(b.buf, 1)
	} else {
		b.buf = append(b.buf, 0)
	}
	return b
}

// Int appends one integer field in fixed-width binary.
func (b *KeyBuilder) Int(v int64) *KeyBuilder {
	return b.Uint(uint64(v))
}

// Uint appends one unsigned integer field in fixed-width binary.
func (b *KeyBuilder) Uint(v uint64) *KeyBuilder {
	b.buf = binary.LittleEndian.AppendUint64(b.buf, v)
	return b
}

// Sum finalizes the key.
func (b *KeyBuilder) Sum() Key {
	sum := sha256.Sum256(b.buf)
	var dst [2 * sha256.Size]byte
	hex.Encode(dst[:], sum[:])
	return Key(dst[:])
}
