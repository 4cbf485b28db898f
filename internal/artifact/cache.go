// Package artifact is the content-addressed artifact cache behind the
// gcsafed daemon and the measurement harness. Entries are keyed by a
// SHA-256 digest of everything that influences the artifact (source text,
// annotation options, machine, optimization level, peephole flag — see
// KeyBuilder), held under an LRU byte budget, and computed exactly once
// per key under arbitrary concurrency: concurrent requests for a missing
// key coalesce onto a single in-flight computation (the classic
// singleflight discipline), so a stampede of identical compiles performs
// one compile and N-1 waits.
//
// In the spirit of CGuard's "make safety cheap enough to always leave on",
// the cache makes repeated safe-mode builds near-free: the second and
// every later request for an annotated, optimized, postprocessed build is
// a map lookup.
package artifact

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// Cache is a concurrency-safe content-addressed store with an LRU byte
// budget and per-key computation dedup.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	lru      *list.List // front = most recently used; values are *entry
	entries  map[Key]*list.Element
	inflight map[Key]*call

	// disk, when attached, is the persistent tier: a memory miss probes
	// it before computing, and every successful computation of an
	// encodable artifact is written through. Immutable after AttachDisk.
	disk  *Disk
	codec DiskCodec

	hits      uint64
	misses    uint64
	evictions uint64
	diskHits  uint64
}

// DiskCodec translates cached values to and from the disk tier's byte
// representation. Encode reports ok=false for values that cannot (or
// should not) be persisted; they simply stay memory-only. Decode gets
// back the kind string Encode returned and must reproduce the value and
// its accounted size.
type DiskCodec struct {
	Encode func(key Key, v any) (kind string, data []byte, ok bool)
	Decode func(kind string, data []byte) (v any, size int64, err error)
}

// AttachDisk installs the persistent tier. Call before serving traffic;
// the tier and codec are not swappable under concurrency.
func (c *Cache) AttachDisk(d *Disk, codec DiskCodec) {
	c.disk = d
	c.codec = codec
}

type entry struct {
	key  Key
	val  any
	size int64
}

// call is one in-flight computation; followers block on done.
type call struct {
	done chan struct{}
	val  any
	err  error
}

// New returns a cache bounded to maxBytes of accounted entry sizes.
// maxBytes <= 0 means "no budget": every successful computation is
// retained (used by short-lived harness runs).
func New(maxBytes int64) *Cache {
	return &Cache{
		maxBytes: maxBytes,
		lru:      list.New(),
		entries:  map[Key]*list.Element{},
		inflight: map[Key]*call{},
	}
}

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	MaxBytes  int64  `json:"max_bytes"`
	// DiskHits counts memory misses satisfied by the disk tier; Disk is
	// the tier's own counters (nil when no tier is attached).
	DiskHits uint64     `json:"disk_hits,omitempty"`
	Disk     *DiskStats `json:"disk,omitempty"`
}

// Stats reports current counters. A request that waited on another
// request's in-flight computation counts as a hit: it did not compute.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	s := Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   c.lru.Len(),
		Bytes:     c.bytes,
		MaxBytes:  c.maxBytes,
		DiskHits:  c.diskHits,
	}
	c.mu.Unlock()
	if c.disk != nil {
		ds := c.disk.Stats()
		s.Disk = &ds
	}
	return s
}

// Get returns the cached value for key, if present, and marks it recently
// used. It never blocks on an in-flight computation.
func (c *Cache) Get(key Key) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		return el.Value.(*entry).val, true
	}
	return nil, false
}

// GetOrCompute returns the value for key, computing it at most once per
// key across all concurrent callers. The first caller to miss runs
// compute; every caller that arrives while that computation is in flight
// blocks until it finishes (or until its own ctx is done) and shares the
// outcome. compute returns the value and its accounted size in bytes.
//
// Errors are not cached: a failed computation is reported to the leader
// and to every follower that was already waiting on it, and the next
// caller recomputes. A context error is the leader's own, not the
// computation's: a follower whose ctx is still live computes again
// rather than share it. hit reports whether this caller avoided
// computing — a stored entry or a shared in-flight result both count.
func (c *Cache) GetOrCompute(ctx context.Context, key Key, compute func() (any, int64, error)) (val any, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		c.mu.Unlock()
		return el.Value.(*entry).val, true, nil
	}
	if cl, ok := c.inflight[key]; ok {
		c.hits++
		c.mu.Unlock()
		select {
		case <-cl.done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if ctx.Err() == nil && (errors.Is(cl.err, context.Canceled) || errors.Is(cl.err, context.DeadlineExceeded)) {
			return c.GetOrCompute(ctx, key, compute)
		}
		return cl.val, true, cl.err
	}
	cl := &call{done: make(chan struct{})}
	c.inflight[key] = cl
	c.mu.Unlock()

	// Leader path: probe the disk tier before computing. A verified disk
	// entry promotes into memory and counts as a hit — the artifact
	// survived a restart and nobody recomputed it.
	if c.disk != nil {
		if v, size, ok := c.diskLoad(ctx, key); ok {
			c.mu.Lock()
			delete(c.inflight, key)
			c.insertLocked(key, v, size)
			c.diskHits++
			c.mu.Unlock()
			cl.val = v
			close(cl.done)
			return v, true, nil
		}
	}

	cl.val, cl.err = func() (any, error) {
		v, size, err := compute()
		c.mu.Lock()
		c.misses++
		delete(c.inflight, key)
		if err == nil {
			c.insertLocked(key, v, size)
		}
		c.mu.Unlock()
		return v, err
	}()
	close(cl.done)
	if cl.err == nil && c.disk != nil {
		c.diskStore(ctx, key, cl.val)
	}
	return cl.val, false, cl.err
}

// diskLoad reads, verifies and decodes the disk entry for key. Every
// failure mode — absent, corrupt (quarantined by the tier), undecodable
// (quarantined here), tier disabled — degrades to "not found".
func (c *Cache) diskLoad(ctx context.Context, key Key) (any, int64, bool) {
	kind, data, err := c.disk.Get(ctx, key)
	if err != nil {
		return nil, 0, false
	}
	if c.codec.Decode == nil {
		return nil, 0, false
	}
	v, size, err := c.codec.Decode(kind, data)
	if err != nil {
		// Verified bytes that no longer decode (format drift, partial
		// upgrade) are as unservable as corrupt ones.
		c.disk.Quarantine(key)
		return nil, 0, false
	}
	return v, size, true
}

// diskStore writes a computed artifact through to the disk tier,
// best-effort: errors only count against the tier's health.
func (c *Cache) diskStore(ctx context.Context, key Key, v any) {
	if c.codec.Encode == nil {
		return
	}
	kind, data, ok := c.codec.Encode(key, v)
	if !ok {
		return
	}
	_ = c.disk.Put(ctx, key, kind, data)
}

// insertLocked stores an entry and evicts LRU entries past the budget.
// An artifact larger than the whole budget is returned to its requester
// but not retained.
func (c *Cache) insertLocked(key Key, v any, size int64) {
	if size < 0 {
		size = 0
	}
	if el, ok := c.entries[key]; ok {
		// Lost a race with a Put; keep the resident entry fresh.
		c.lru.MoveToFront(el)
		return
	}
	if c.maxBytes > 0 && size > c.maxBytes {
		return
	}
	el := c.lru.PushFront(&entry{key: key, val: v, size: size})
	c.entries[key] = el
	c.bytes += size
	for c.maxBytes > 0 && c.bytes > c.maxBytes {
		oldest := c.lru.Back()
		if oldest == nil || oldest == el {
			break
		}
		c.removeLocked(oldest)
		c.evictions++
	}
}

// Put stores a precomputed artifact (no dedup involved).
func (c *Cache) Put(key Key, v any, size int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insertLocked(key, v, size)
}

func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.lru.Remove(el)
	delete(c.entries, e.key)
	c.bytes -= e.size
}

// Len reports the number of resident entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
