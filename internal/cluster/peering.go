package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gcsafety/internal/artifact"
	"gcsafety/internal/client"
	"gcsafety/internal/faultinject"
)

// Config describes one node's view of the cluster.
type Config struct {
	// Self is this node's advertised base URL (e.g. "http://127.0.0.1:7996").
	// It must be the exact string the other nodes carry in their peer
	// lists: ownership is computed over addresses, so all nodes must spell
	// each node the same way.
	Self string
	// Peers is the full member list, Self included (it is added if
	// missing). Order does not matter; duplicates are removed.
	Peers []string
	// Replicas is the virtual-node count per peer on the hash ring
	// (default 64).
	Replicas int
	// PeerTimeout bounds one peer operation end to end, retries included
	// (default 2s). A slow peer must never cost more than this before the
	// caller falls back to computing locally.
	PeerTimeout time.Duration
	// Client tunes the per-peer HTTP client. Unset fields get
	// cluster-specific defaults biased toward fast failover: 2 attempts,
	// 25ms base backoff, breaker threshold 3.
	Client client.Config
}

func (c Config) peerClientConfig(addr string) client.Config {
	cc := c.Client
	if cc.MaxAttempts == 0 {
		cc.MaxAttempts = 2
	}
	if cc.BaseBackoff == 0 {
		cc.BaseBackoff = 25 * time.Millisecond
	}
	if cc.MaxBackoff == 0 {
		cc.MaxBackoff = 250 * time.Millisecond
	}
	if cc.BreakerThreshold == 0 {
		cc.BreakerThreshold = 3
	}
	if cc.BreakerCooldown == 0 {
		cc.BreakerCooldown = time.Second
	}
	if cc.JitterSeed == 0 {
		// Distinct deterministic jitter streams per peer link.
		cc.JitterSeed = hash64(addr) | 1
	}
	return cc
}

// peer is one remote member: its resilient client plus traffic counters.
type peer struct {
	addr      string
	cl        *client.Client
	gets      atomic.Uint64
	getHits   atomic.Uint64
	getErrors atomic.Uint64
	puts      atomic.Uint64
	putErrors atomic.Uint64
}

// Peering is one node's live membership state: the consistent-hash ring
// plus a client per remote peer. It is safe for concurrent use;
// UpdatePeers may be called while requests are in flight.
type Peering struct {
	cfg  Config
	self string

	mu    sync.RWMutex
	ring  *ring
	peers map[string]*peer // remote members only

	ownedLocal   atomic.Uint64 // key lookups this node owned itself
	remoteHits   atomic.Uint64 // fetches served by the owning peer
	fallbacks    atomic.Uint64 // fetches that failed over to local compute
	decodeErrors atomic.Uint64 // peer responses the codec rejected
	pushes       atomic.Uint64 // repair puts attempted
	rebalances   atomic.Uint64 // effective peer-list changes
}

// New builds the peering state for cfg. cfg.Self must be non-empty.
func New(cfg Config) (*Peering, error) {
	if cfg.Self == "" {
		return nil, errors.New("cluster: Config.Self is required")
	}
	if cfg.PeerTimeout <= 0 {
		cfg.PeerTimeout = 2 * time.Second
	}
	p := &Peering{cfg: cfg, self: cfg.Self, peers: map[string]*peer{}, ring: newRing(cfg.Replicas, nil)}
	p.UpdatePeers(cfg.Peers)
	p.rebalances.Store(0) // construction is not a rebalance
	return p, nil
}

// Self returns this node's advertised address.
func (p *Peering) Self() string { return p.self }

// Members returns the current member list, sorted, self included.
func (p *Peering) Members() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := []string{p.self}
	for addr := range p.peers {
		out = append(out, addr)
	}
	sort.Strings(out)
	return out
}

// UpdatePeers replaces the member list and rebuilds the ring: the
// rebalance path. Self is always a member; clients of retained peers are
// kept (their breaker state survives the change), clients of removed
// peers are dropped. Consistent hashing guarantees only keys in the
// arcs of added/removed peers change owners.
func (p *Peering) UpdatePeers(members []string) {
	seen := map[string]bool{p.self: true}
	normalized := []string{p.self}
	for _, addr := range members {
		if addr == "" || seen[addr] {
			continue
		}
		seen[addr] = true
		normalized = append(normalized, addr)
	}
	sort.Strings(normalized)

	p.mu.Lock()
	defer p.mu.Unlock()
	changed := len(normalized) != len(p.peers)+1
	next := make(map[string]*peer, len(normalized)-1)
	for _, addr := range normalized {
		if addr == p.self {
			continue
		}
		if existing, ok := p.peers[addr]; ok {
			next[addr] = existing
			continue
		}
		changed = true
		next[addr] = &peer{addr: addr, cl: client.New(addr, p.cfg.peerClientConfig(addr))}
	}
	p.peers = next
	p.ring = newRing(p.cfg.Replicas, normalized)
	if changed {
		p.rebalances.Add(1)
	}
}

// Owner resolves the owning member for key. self reports whether this
// node owns it (also true for a single-node cluster).
func (p *Peering) Owner(key artifact.Key) (addr string, self bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	addr = p.ring.owner(string(key))
	return addr, addr == "" || addr == p.self
}

// ErrPeerUnavailable wraps every failed peer operation so callers can
// treat "owner unreachable" uniformly, whatever the transport detail.
var ErrPeerUnavailable = errors.New("cluster: owning peer unavailable")

// Fetch resolves the owner of home — the key an artifact is placed by:
// its own, or another that keeps related artifacts together — and, when
// it is a remote peer, asks it to get-or-compute the artifact under key
// that recipe describes.
//
//	remote == false            this node owns home: compute locally,
//	                           not a fallback (resp and err are nil)
//	remote == true, err == nil the owner served the artifact
//	remote == true, err != nil the owner was unreachable or refused:
//	                           compute locally, counted as a fallback
//
// The operation is bounded by Config.PeerTimeout and the cluster.peer.get
// fault point fires before any network activity, so chaos suites can
// sever the peer link deterministically.
func (p *Peering) Fetch(ctx context.Context, home, key artifact.Key, recipe any) (resp *GetResponse, remote bool, err error) {
	owner, self := p.Owner(home)
	if self {
		p.ownedLocal.Add(1)
		return nil, false, nil
	}
	pr := p.lookup(owner)
	if pr == nil {
		// The ring and peer map changed between Owner and lookup; treat
		// like an unreachable owner.
		p.fallbacks.Add(1)
		return nil, true, fmt.Errorf("%w: %s left the cluster", ErrPeerUnavailable, owner)
	}
	pr.gets.Add(1)
	if ferr := faultinject.For(ctx).FireCtx(ctx, faultinject.PointPeerGet); ferr != nil {
		pr.getErrors.Add(1)
		p.fallbacks.Add(1)
		return nil, true, fmt.Errorf("%w: %w", ErrPeerUnavailable, ferr)
	}
	raw, merr := json.Marshal(recipe)
	if merr != nil {
		pr.getErrors.Add(1)
		p.fallbacks.Add(1)
		return nil, true, fmt.Errorf("%w: encoding recipe: %v", ErrPeerUnavailable, merr)
	}
	cctx, cancel := context.WithTimeout(ctx, p.cfg.PeerTimeout)
	defer cancel()
	var out GetResponse
	if _, cerr := pr.cl.PostJSON(cctx, "/v1/peer/get", nil, &GetRequest{
		Key:    string(key),
		Recipe: raw,
	}, &out); cerr != nil {
		pr.getErrors.Add(1)
		p.fallbacks.Add(1)
		return nil, true, fmt.Errorf("%w: %w", ErrPeerUnavailable, cerr)
	}
	pr.getHits.Add(1)
	p.remoteHits.Add(1)
	return &out, true, nil
}

// Push offers the artifact under key to home's owner, best-effort: the
// repair path after a fallback compute. Owning home yourself is a no-op.
func (p *Peering) Push(ctx context.Context, home, key artifact.Key, codecKind string, payload []byte) error {
	owner, self := p.Owner(home)
	if self {
		return nil
	}
	pr := p.lookup(owner)
	if pr == nil {
		return fmt.Errorf("%w: %s left the cluster", ErrPeerUnavailable, owner)
	}
	p.pushes.Add(1)
	pr.puts.Add(1)
	if ferr := faultinject.For(ctx).FireCtx(ctx, faultinject.PointPeerPut); ferr != nil {
		pr.putErrors.Add(1)
		return fmt.Errorf("%w: %v", ErrPeerUnavailable, ferr)
	}
	cctx, cancel := context.WithTimeout(ctx, p.cfg.PeerTimeout)
	defer cancel()
	if _, cerr := pr.cl.PostJSON(cctx, "/v1/peer/put", nil, &PutRequest{
		Key:       string(key),
		CodecKind: codecKind,
		Payload:   payload,
	}, nil); cerr != nil {
		pr.putErrors.Add(1)
		return fmt.Errorf("%w: %v", ErrPeerUnavailable, cerr)
	}
	return nil
}

// NoteDecodeError records a peer response the artifact codec rejected —
// served bytes that failed revalidation count against cluster health,
// and the caller falls back to computing locally.
func (p *Peering) NoteDecodeError() {
	p.decodeErrors.Add(1)
	p.fallbacks.Add(1)
}

func (p *Peering) lookup(addr string) *peer {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.peers[addr]
}

// PeerSnapshot is one remote member's health and traffic view.
type PeerSnapshot struct {
	Addr      string `json:"addr"`
	Gets      uint64 `json:"gets"`
	GetHits   uint64 `json:"get_hits"`
	GetErrors uint64 `json:"get_errors"`
	Puts      uint64 `json:"puts"`
	PutErrors uint64 `json:"put_errors"`
	// BreakerOpen reports the peer link's circuit breaker state: true
	// means this node currently considers the peer down and is
	// fast-failing fetches to it (every such fetch is a local-compute
	// fallback).
	BreakerOpen bool `json:"breaker_open"`
	// Client carries the underlying resilient-client counters (attempts,
	// retries, breaker trips, half-open probes, recoveries).
	Client client.Stats `json:"client"`
}

// Snapshot is the cluster section of /metrics.
type Snapshot struct {
	Self    string   `json:"self"`
	Members []string `json:"members"`
	// OwnedLocal counts key lookups this node owned itself; RemoteHits
	// and Fallbacks split the rest by whether the owning peer answered.
	OwnedLocal   uint64         `json:"owned_local"`
	RemoteHits   uint64         `json:"remote_hits"`
	Fallbacks    uint64         `json:"fallbacks"`
	DecodeErrors uint64         `json:"decode_errors"`
	Pushes       uint64         `json:"pushes"`
	Rebalances   uint64         `json:"rebalances"`
	Peers        []PeerSnapshot `json:"peers"`
}

// Stats snapshots the peering state.
func (p *Peering) Stats() Snapshot {
	s := Snapshot{
		Self:         p.self,
		Members:      p.Members(),
		OwnedLocal:   p.ownedLocal.Load(),
		RemoteHits:   p.remoteHits.Load(),
		Fallbacks:    p.fallbacks.Load(),
		DecodeErrors: p.decodeErrors.Load(),
		Pushes:       p.pushes.Load(),
		Rebalances:   p.rebalances.Load(),
	}
	p.mu.RLock()
	peers := make([]*peer, 0, len(p.peers))
	for _, pr := range p.peers {
		peers = append(peers, pr)
	}
	p.mu.RUnlock()
	sort.Slice(peers, func(i, j int) bool { return peers[i].addr < peers[j].addr })
	for _, pr := range peers {
		s.Peers = append(s.Peers, PeerSnapshot{
			Addr:        pr.addr,
			Gets:        pr.gets.Load(),
			GetHits:     pr.getHits.Load(),
			GetErrors:   pr.getErrors.Load(),
			Puts:        pr.puts.Load(),
			PutErrors:   pr.putErrors.Load(),
			BreakerOpen: pr.cl.BreakerOpen(),
			Client:      pr.cl.Stats(),
		})
	}
	return s
}
