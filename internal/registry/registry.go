// Package registry is the replicated agent tier: N spaces each serve the
// versioned name directory of internal/naming at the well-known agent
// index, one of them acting as sequencer for writes.
//
// Membership is static (the peer endpoint list, in chain order) but
// liveness is not: every replica probes its peers each ProbeInterval, and
// the sequencer is simply the lowest-indexed live, caught-up replica —
// when it dies the next one takes over within a couple of probe rounds,
// bumping the version counter by an epoch stride so versions it assigns
// can never collide with unreplicated assignments of its predecessor.
//
// Writes (Bind/Rebind/Unbind) are accepted only by the sequencer, which
// applies them locally and chain-replicates down the live chain — each
// replica forwards to the next live peer after itself and the reply
// travels back up, so a write acknowledged to the client exists on every
// live replica. Reads (Lookup/List) are served by any caught-up replica.
// A replica that crashes and restarts (or joins late) refuses reads and
// writes until it has caught up from a live peer, via the recent-update
// log tail when the gap is small and a versioned snapshot diff otherwise;
// per-name version max-merge makes the repair idempotent and convergent.
//
// Replica spaces must run with Options.AutoRelease: the replication plane
// moves references between replicas outside any request/response
// ownership discipline, and the weak-reference cleanup is what reclaims
// the base holds left behind by decoded arguments.
//
// The client side of the tier is the Resolver (resolver.go): leased
// lookup caching, pushed invalidations, failover, and transparent
// rebinding of stale surrogates.
package registry

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"netobjects/internal/core"
	"netobjects/internal/naming"
	"netobjects/internal/obs"
	"netobjects/internal/wire"
)

// Registry errors.
var (
	// ErrSyncing reports an operation on a replica that has not caught up
	// with the cluster yet; clients retry against another replica.
	ErrSyncing = errors.New("registry: replica syncing")
	// ErrNotSequencer reports a write sent to a follower. The remote form
	// carries the sequencer's endpoint; see RedirectTarget.
	ErrNotSequencer = errors.New("registry: not sequencer")
)

// notSequencerPrefix is the wire form of ErrNotSequencer. Remote errors
// cross the wire as text, so the redirect target rides in the message.
const notSequencerPrefix = "registry: not sequencer; leader="

// RedirectTarget extracts the sequencer endpoint from a follower's
// write-rejection error, or "" if err is not a redirect.
func RedirectTarget(err error) string {
	if err == nil {
		return ""
	}
	msg := err.Error()
	if i := strings.Index(msg, notSequencerPrefix); i >= 0 {
		return msg[i+len(notSequencerPrefix):]
	}
	return ""
}

// IsSyncing reports whether err is a replica's not-caught-up refusal
// (locally or from the wire).
func IsSyncing(err error) bool {
	return err != nil && (errors.Is(err, ErrSyncing) || strings.Contains(err.Error(), ErrSyncing.Error()))
}

// epochStride is the version-counter bump a replica applies on becoming
// sequencer: a dead predecessor can have assigned at most this many
// unreplicated versions, so post-election versions never collide.
const epochStride = 1 << 20

// tailRing bounds the recent-update log kept for fast catch-up.
const tailRing = 512

// Options configures one replica.
type Options struct {
	// Peers lists every replica endpoint, in chain order. All replicas
	// must use the same list. A single-entry list is a (non-replicated)
	// single-agent registry.
	Peers []string
	// Self is this replica's index in Peers.
	Self int
	// LeaseTTL is the lease duration granted to resolver caches; it is
	// the staleness bound a client can observe after a rebind whose
	// invalidation push was lost. Default 2s.
	LeaseTTL time.Duration
	// ProbeInterval is the liveness probe period. Default 250ms.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one liveness probe. Default ProbeInterval.
	ProbeTimeout time.Duration
	// ProbeFailures is the number of consecutive failed probes after
	// which a peer is declared dead. Default 2.
	ProbeFailures int
	// JoinFrom, when set, forces the replica to catch up from this
	// endpoint before serving, even if no other peer is reachable — the
	// safe way to re-join after a long absence. By default a replica with
	// no reachable caught-up peer assumes a fresh cluster boot and serves
	// immediately.
	JoinFrom string
	// Logf, when set, receives replica life-cycle events.
	Logf func(format string, args ...any)
}

func (o *Options) defaults() {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 2 * time.Second
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 250 * time.Millisecond
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = o.ProbeInterval
	}
	if o.ProbeFailures <= 0 {
		o.ProbeFailures = 2
	}
}

// peerState is this replica's view of one peer, updated by probing.
type peerState struct {
	live    bool
	ready   bool
	applied uint64
	digest  uint64
	fails   int
}

// subscriber is one resolver sink receiving pushed invalidations.
type subscriber struct {
	ref   *core.Ref
	fails atomic.Int32 // consecutive push failures; raced by concurrent pushes
}

// Replica is one member of the replicated agent tier. Its remote face
// (served at the well-known agent index) speaks the naming protocol plus
// the replication RPCs; the methods on Replica itself are management API
// for the hosting process and are not remotely callable.
type Replica struct {
	sp    *core.Space
	agent *naming.Agent
	opts  Options
	m     *obs.Metrics

	mu     sync.Mutex
	peers  []peerState // indexed like opts.Peers; self entry unused
	leader int         // current sequencer index, -1 while unknown
	ready  bool
	subs   []*subscriber

	// tail is the recent-update ring; tailFloor is the highest version
	// that has been evicted from it (0 when nothing was evicted).
	tail      []naming.VersionedName
	tailFloor uint64

	closed chan struct{}
	wg     sync.WaitGroup
}

// Serve installs a replica of the registry tier on sp, serving its
// directory at the well-known agent index, and starts the membership
// monitor. Multi-replica registries require sp to run with AutoRelease.
func Serve(sp *core.Space, opts Options) (*Replica, error) {
	if len(opts.Peers) == 0 {
		return nil, errors.New("registry: no peers configured")
	}
	if opts.Self < 0 || opts.Self >= len(opts.Peers) {
		return nil, fmt.Errorf("registry: self index %d outside peer list", opts.Self)
	}
	if !sp.AutoReleasing() {
		return nil, errors.New("registry: replica spaces need Options.AutoRelease " +
			"(references received by the write and replication paths are reclaimed " +
			"through the weak-reference cleanup)")
	}
	opts.defaults()
	r := &Replica{
		sp:     sp,
		agent:  naming.NewAgent(),
		opts:   opts,
		m:      sp.Metrics(),
		peers:  make([]peerState, len(opts.Peers)),
		leader: -1,
		closed: make(chan struct{}),
	}
	r.agent.SetApplyHook(r.onApply)
	if _, err := sp.ExportAgent(&replicaRPC{r: r}); err != nil {
		return nil, err
	}
	if len(opts.Peers) == 1 && opts.JoinFrom == "" {
		r.ready = true
		r.leader = opts.Self
		return r, nil
	}
	r.wg.Add(1)
	go r.monitor()
	return r, nil
}

// Close stops the membership monitor and drops subscriber references. It
// does not close the underlying space.
func (r *Replica) Close() {
	select {
	case <-r.closed:
		return
	default:
	}
	close(r.closed)
	r.wg.Wait()
	r.mu.Lock()
	subs := r.subs
	r.subs = nil
	r.mu.Unlock()
	for _, s := range subs {
		s.ref.Release()
	}
}

// Agent exposes the replica's directory for in-process inspection.
func (r *Replica) Agent() *naming.Agent { return r.agent }

// Leader reports the current sequencer index (-1 while unknown).
func (r *Replica) Leader() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.leader
}

// IsLeader reports whether this replica currently sequences writes.
func (r *Replica) IsLeader() bool { return r.Leader() == r.opts.Self }

// Ready reports whether the replica has caught up and serves requests.
func (r *Replica) Ready() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ready
}

// LeaseTTL reports the lease duration this replica grants.
func (r *Replica) LeaseTTL() time.Duration { return r.opts.LeaseTTL }

// StatusString renders the replica's membership view for the debug page.
func (r *Replica) StatusString() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "replica %d/%d leader=%d ready=%v applied=%d lease=%v peers=[",
		r.opts.Self, len(r.opts.Peers), r.leader, r.ready, r.agent.Seq(), r.opts.LeaseTTL)
	for i := range r.opts.Peers {
		if i > 0 {
			b.WriteByte(' ')
		}
		switch {
		case i == r.opts.Self:
			fmt.Fprintf(&b, "%d:self", i)
		case r.peers[i].live && r.peers[i].ready:
			fmt.Fprintf(&b, "%d:live@%d", i, r.peers[i].applied)
		case r.peers[i].live:
			fmt.Fprintf(&b, "%d:syncing", i)
		default:
			fmt.Fprintf(&b, "%d:down", i)
		}
	}
	b.WriteByte(']')
	return b.String()
}

// logf reports a life-cycle event to the configured logger.
func (r *Replica) logf(format string, args ...any) {
	if r.opts.Logf != nil {
		r.opts.Logf(format, args...)
	}
}

// onApply is the directory's apply hook: it records the update in the
// catch-up tail and pushes invalidations to subscribed resolvers.
func (r *Replica) onApply(u naming.Update) {
	r.mu.Lock()
	r.tail = append(r.tail, naming.VersionedName{Name: u.Name, Version: u.Version})
	if len(r.tail) > tailRing {
		evict := len(r.tail) - tailRing
		for _, e := range r.tail[:evict] {
			if e.Version > r.tailFloor {
				r.tailFloor = e.Version
			}
		}
		r.tail = append(r.tail[:0], r.tail[evict:]...)
	}
	subs := make([]*subscriber, len(r.subs))
	copy(subs, r.subs)
	r.mu.Unlock()
	if len(subs) > 0 {
		go r.pushInvalidation(subs, u.Name, u.Version)
	}
}

// pushInvalidation notifies subscribed resolvers that name changed at
// version. Pushes are one-way and best-effort: the lease TTL bounds
// staleness when one is lost, and a sink that keeps failing is dropped.
func (r *Replica) pushInvalidation(subs []*subscriber, name string, version uint64) {
	ctx, cancel := context.WithTimeout(context.Background(), r.opts.LeaseTTL)
	defer cancel()
	var drop []*subscriber
	for _, s := range subs {
		if err := s.ref.OneWayCtx(ctx, "Invalidate", name, version); err != nil {
			if s.fails.Add(1) >= 3 {
				drop = append(drop, s)
			}
			continue
		}
		s.fails.Store(0)
		r.m.RegistryInvalSent.Inc()
	}
	if len(drop) == 0 {
		return
	}
	r.mu.Lock()
	kept := r.subs[:0]
	dead := make([]*core.Ref, 0, len(drop))
	for _, s := range r.subs {
		dropped := false
		for _, d := range drop {
			if s == d {
				dropped = true
				break
			}
		}
		if dropped {
			dead = append(dead, s.ref)
		} else {
			kept = append(kept, s)
		}
	}
	r.subs = kept
	r.mu.Unlock()
	for _, ref := range dead {
		ref.Release()
	}
}

// monitor is the membership loop: probe peers, elect the sequencer,
// catch up when behind.
func (r *Replica) monitor() {
	defer r.wg.Done()
	t := time.NewTicker(r.opts.ProbeInterval)
	defer t.Stop()
	for {
		r.probeRound()
		select {
		case <-r.closed:
			return
		case <-t.C:
		}
	}
}

// probeRound runs one round of liveness probes and acts on the result.
func (r *Replica) probeRound() {
	type probe struct {
		idx     int
		ok      bool
		ready   bool
		applied uint64
		digest  uint64
	}
	results := make(chan probe, len(r.opts.Peers))
	n := 0
	for i, ep := range r.opts.Peers {
		if i == r.opts.Self {
			continue
		}
		n++
		go func(i int, ep string) {
			ctx, cancel := context.WithTimeout(context.Background(), r.opts.ProbeTimeout)
			defer cancel()
			out, err := r.sp.CallEndpointCtx(ctx, ep, wire.AgentIndex, "Status")
			if err != nil || len(out) < 5 {
				r.logf("registry: replica %d probe of peer %d failed: %v", r.opts.Self, i, err)
				results <- probe{idx: i}
				return
			}
			ready, _ := out[2].(bool)
			results <- probe{idx: i, ok: true, ready: ready, applied: asU64(out[3]), digest: asU64(out[4])}
		}(i, ep)
	}

	// Drain the probes BEFORE taking the lock: the Status handler the
	// peers' probes land on needs r.mu, so holding it across the round
	// would deadlock every replica against every other until the probe
	// timeouts fire.
	collected := make([]probe, 0, n)
	for ; n > 0; n-- {
		collected = append(collected, <-results)
	}
	r.mu.Lock()
	for _, p := range collected {
		ps := &r.peers[p.idx]
		if p.ok {
			if !ps.live {
				r.logf("registry: peer %d (%s) is back", p.idx, r.opts.Peers[p.idx])
			}
			ps.live, ps.ready, ps.applied, ps.digest, ps.fails = true, p.ready, p.applied, p.digest, 0
		} else {
			ps.fails++
			if ps.live && ps.fails >= r.opts.ProbeFailures {
				ps.live, ps.ready = false, false
				r.logf("registry: peer %d (%s) declared dead", p.idx, r.opts.Peers[p.idx])
			}
		}
	}
	wasReady, wasLeader := r.ready, r.leader
	// A caught-up peer to sync from, preferring the lowest index. Also
	// watch for silent divergence: a peer at (or past) our high-water
	// mark whose state digest differs holds a write we missed — a scalar
	// version comparison can never see it.
	own, ownDigest := r.agent.Seq(), r.agent.Digest()
	syncFrom, divergeFrom := -1, -1
	maxApplied := own
	for i := range r.peers {
		if i == r.opts.Self || !r.peers[i].live || !r.peers[i].ready {
			continue
		}
		if syncFrom < 0 {
			syncFrom = i
		}
		if r.peers[i].applied > maxApplied {
			maxApplied = r.peers[i].applied
		}
		if divergeFrom < 0 && r.peers[i].applied >= own && r.peers[i].digest != ownDigest {
			divergeFrom = i
		}
	}
	r.mu.Unlock()

	if maxApplied > own {
		r.m.RegistryReplLag.Set(int64(maxApplied - own))
	} else {
		r.m.RegistryReplLag.Set(0)
	}

	if !wasReady {
		switch {
		case r.opts.JoinFrom != "":
			if err := r.catchup(r.opts.JoinFrom, false); err != nil {
				r.logf("registry: join catch-up from %s failed: %v", r.opts.JoinFrom, err)
				return
			}
			r.opts.JoinFrom = ""
		case syncFrom >= 0:
			if err := r.catchup(r.opts.Peers[syncFrom], false); err != nil {
				r.logf("registry: catch-up from peer %d failed: %v", syncFrom, err)
				return
			}
		default:
			// No caught-up peer reachable: fresh cluster boot.
		}
		r.mu.Lock()
		r.ready = true
		r.mu.Unlock()
		r.logf("registry: replica %d ready at version %d", r.opts.Self, r.agent.Seq())
	} else if syncFrom >= 0 && maxApplied > r.agent.Seq() {
		// Behind the cluster while serving: anti-entropy repair.
		if err := r.catchup(r.opts.Peers[syncFrom], false); err != nil {
			r.logf("registry: anti-entropy from peer %d failed: %v", syncFrom, err)
		}
	} else if divergeFrom >= 0 {
		// Same high-water mark, different contents: a write landed on the
		// chain while this replica was mid-catch-up and skipped it. The
		// log tail is blind to it (nothing is newer than our seq), so go
		// straight to the versioned snapshot diff.
		r.logf("registry: replica %d digest diverges from peer %d at version %d; full repair",
			r.opts.Self, divergeFrom, own)
		if err := r.catchup(r.opts.Peers[divergeFrom], true); err != nil {
			r.logf("registry: digest repair from peer %d failed: %v", divergeFrom, err)
		}
	}

	// Elect: the sequencer is the lowest live, caught-up member. A live
	// peer that is still syncing blocks the members above it from
	// claiming the role — it is about to become the rightful sequencer,
	// and holding off avoids two members sequencing the same epoch during
	// boots and rejoins. Writes stall with "no sequencer" (which resolvers
	// retry) for the duration of its catch-up.
	r.mu.Lock()
	leader := -1
	for i := range r.opts.Peers {
		if i == r.opts.Self {
			if r.ready {
				leader = i
			}
			break
		}
		if r.peers[i].live {
			if r.peers[i].ready {
				leader = i
			}
			break
		}
	}
	r.leader = leader
	// The takeover floor must clear every counter in the cluster, not
	// just our own: dead peers count too — the dead predecessor is
	// exactly whose unreplicated tail the stride must jump past, and our
	// own scalar can trail it even when our name data is current.
	floor := r.agent.Seq()
	for i := range r.peers {
		if i != r.opts.Self && r.peers[i].applied > floor {
			floor = r.peers[i].applied
		}
	}
	r.mu.Unlock()
	if leader == r.opts.Self && wasLeader != r.opts.Self {
		// Taking over: jump the version counter past anything the dead
		// predecessor could have assigned without replicating.
		r.agent.SeqFloor(floor + epochStride)
		r.m.RegistryElections.Inc()
		r.logf("registry: replica %d is sequencer (epoch floor %d)", r.opts.Self, r.agent.Seq())
	}
}

// catchup pulls missing updates from ep: the log tail when the gap is
// inside the peer's ring, a full versioned snapshot diff otherwise.
// full forces the snapshot diff — digest-repair must not trust the tail,
// because divergence can hide entirely below the version high-water mark.
func (r *Replica) catchup(ep string, full bool) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var names []string
	ok := false
	if !full {
		from := r.agent.Seq()
		out, err := r.sp.CallEndpointCtx(ctx, ep, wire.AgentIndex, "Tail", from)
		if err != nil {
			return err
		}
		names, _ = out[0].([]string)
		ok, _ = out[1].(bool)
	}
	if !ok {
		// Gap too wide for the tail ring: diff snapshots.
		out, err := r.sp.CallEndpointCtx(ctx, ep, wire.AgentIndex, "SyncState")
		if err != nil {
			return err
		}
		bNames, _ := out[0].([]string)
		bVers, _ := out[1].([]uint64)
		tNames, _ := out[2].([]string)
		tVers, _ := out[3].([]uint64)
		names = names[:0]
		for i, n := range bNames {
			if i < len(bVers) && r.versionOf(n) < bVers[i] {
				names = append(names, n)
			}
		}
		for i, n := range tNames {
			if i < len(tVers) {
				r.agent.ApplyUnbind(n, tVers[i])
			}
		}
	}
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if seen[n] {
			continue
		}
		seen[n] = true
		if err := r.fetchApply(ctx, ep, n); err != nil {
			return err
		}
	}
	r.m.RegistryCatchups.Inc()
	return nil
}

// versionOf reports the highest version this replica has seen for name
// (binding or tombstone).
func (r *Replica) versionOf(name string) uint64 {
	if _, v, ok := r.agent.Binding(name); ok {
		return v
	}
	if v, ok := r.agent.Tomb(name); ok {
		return v
	}
	return 0
}

// fetchApply pulls one name's current state from ep and applies it.
func (r *Replica) fetchApply(ctx context.Context, ep, name string) error {
	out, err := r.sp.CallEndpointCtx(ctx, ep, wire.AgentIndex, "Fetch", name)
	if err != nil {
		return err
	}
	ref, _ := out[0].(*core.Ref)
	version := asU64(out[1])
	deleted, _ := out[2].(bool)
	switch {
	case deleted:
		if r.agent.ApplyUnbind(name, version) {
			r.m.RegistryReplicated.Inc()
		}
	case ref != nil:
		dup, err := ref.Dup()
		if err != nil {
			return nil // superseded while in flight; a newer round repairs
		}
		if r.agent.ApplyBind(name, dup, version) {
			r.m.RegistryReplicated.Inc()
		}
	}
	return nil
}

// nextLiveAfter returns the index of the first peer after i in chain
// order that is live or not yet declared dead, or -1 when i is the tail
// of the live chain. A peer that has never answered a probe stays in the
// chain until it has failed ProbeFailures of them, so a write sequenced
// before the first probe round reaches it is not acknowledged while only
// the sequencer holds it; the write fails instead, and the resolver
// retries it.
func (r *Replica) nextLiveAfter(i int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	for j := i + 1; j < len(r.opts.Peers); j++ {
		if j == r.opts.Self || r.peers[j].live || r.peers[j].fails < r.opts.ProbeFailures {
			return j
		}
	}
	return -1
}

// forward sends name's current state to the next live replica in the
// chain, which applies it and forwards onward; the nested replies form
// the chain acknowledgement. Coalescing to current state (rather than the
// triggering update) is safe: versions only grow, and appliers are
// version-guarded.
func (r *Replica) forward(ctx context.Context, name string) error {
	next := r.nextLiveAfter(r.opts.Self)
	if next < 0 {
		return nil
	}
	ep := r.opts.Peers[next]
	if ref, v, ok := r.agent.Binding(name); ok {
		dup, err := ref.Dup()
		if err != nil {
			return nil // binding superseded; its forward is in flight
		}
		defer dup.Release()
		_, err = r.sp.CallEndpointCtx(ctx, ep, wire.AgentIndex, "Replicate", name, v, dup)
		return err
	}
	if v, ok := r.agent.Tomb(name); ok {
		_, err := r.sp.CallEndpointCtx(ctx, ep, wire.AgentIndex, "ReplicateTomb", name, v)
		return err
	}
	return nil
}

// write sequences one mutation: leader-only, applied locally, then chain
// replicated. The returned version is the write's position in the name's
// history.
func (r *Replica) write(ctx context.Context, name string, apply func() (uint64, error)) (uint64, error) {
	r.mu.Lock()
	ready, leader := r.ready, r.leader
	r.mu.Unlock()
	if !ready {
		return 0, ErrSyncing
	}
	if leader != r.opts.Self {
		if leader < 0 {
			return 0, errors.New("registry: no sequencer elected")
		}
		return 0, fmt.Errorf("%s%s", notSequencerPrefix, r.opts.Peers[leader])
	}
	v, err := apply()
	if err != nil {
		return 0, err
	}
	r.m.RegistryWrites.Inc()
	if err := r.forward(ctx, name); err != nil {
		// The write is applied here but not acknowledged down the whole
		// chain: report failure (anti-entropy converges the followers).
		return 0, fmt.Errorf("registry: replication failed: %w", err)
	}
	return v, nil
}

// replicaRPC is the replica's remote face, exported at the well-known
// agent index. It speaks the plain naming protocol (Bind/Rebind/Unbind/
// Lookup/List, so naming's client helpers work unchanged against a
// replica) plus the replication and catch-up RPCs.
type replicaRPC struct {
	r *Replica
}

// Bind publishes ref under name through the sequencer.
func (d *replicaRPC) Bind(ctx context.Context, name string, ref *core.Ref) (uint64, error) {
	return d.r.write(ctx, name, func() (uint64, error) {
		dup, err := ref.Dup()
		if err != nil {
			return 0, err
		}
		v, err := d.r.agent.Bind(name, dup)
		if err != nil {
			dup.Release()
		}
		return v, err
	})
}

// Rebind publishes ref under name, replacing any existing binding.
func (d *replicaRPC) Rebind(ctx context.Context, name string, ref *core.Ref) (uint64, error) {
	return d.r.write(ctx, name, func() (uint64, error) {
		dup, err := ref.Dup()
		if err != nil {
			return 0, err
		}
		v, err := d.r.agent.Rebind(name, dup)
		if err != nil {
			dup.Release()
		}
		return v, err
	})
}

// Unbind removes a binding through the sequencer.
func (d *replicaRPC) Unbind(ctx context.Context, name string) (uint64, error) {
	return d.r.write(ctx, name, func() (uint64, error) {
		return d.r.agent.Unbind(name)
	})
}

// Lookup resolves name at this replica.
func (d *replicaRPC) Lookup(name string) (*core.Ref, error) {
	ref, _, err := d.LookupV(name)
	return ref, err
}

// LookupV resolves name plus its binding version at this replica. The
// reply marshals the replica's own reference (pinned for the send).
func (d *replicaRPC) LookupV(name string) (*core.Ref, uint64, error) {
	if !d.r.Ready() {
		return nil, 0, ErrSyncing
	}
	ref, v, ok := d.r.agent.Binding(name)
	if !ok {
		return nil, 0, fmt.Errorf("%w: %q", naming.ErrNotFound, name)
	}
	return ref, v, nil
}

// List returns the bound names in sorted order.
func (d *replicaRPC) List() ([]string, error) {
	if !d.r.Ready() {
		return nil, ErrSyncing
	}
	return d.r.agent.List()
}

// Status answers liveness probes: (leader, leaseMillis, ready, applied,
// digest). It answers even while syncing — probes are how peers learn
// readiness. The digest is the directory's order-independent state hash:
// peers compare it to catch per-name divergence that the applied
// high-water mark hides.
func (d *replicaRPC) Status() (int64, int64, bool, uint64, uint64, error) {
	d.r.mu.Lock()
	leader, ready := d.r.leader, d.r.ready
	d.r.mu.Unlock()
	return int64(leader), d.r.opts.LeaseTTL.Milliseconds(), ready, d.r.agent.Seq(), d.r.agent.Digest(), nil
}

// Replicate applies one chained binding update and forwards it to the
// next live replica.
func (d *replicaRPC) Replicate(ctx context.Context, name string, version uint64, ref *core.Ref) error {
	if ref == nil {
		return errors.New("registry: Replicate without a reference")
	}
	if dup, err := ref.Dup(); err == nil {
		if d.r.agent.ApplyBind(name, dup, version) {
			d.r.m.RegistryReplicated.Inc()
		}
	}
	return d.r.forward(ctx, name)
}

// ReplicateTomb applies one chained unbind and forwards it.
func (d *replicaRPC) ReplicateTomb(ctx context.Context, name string, version uint64) error {
	if d.r.agent.ApplyUnbind(name, version) {
		d.r.m.RegistryReplicated.Inc()
	}
	return d.r.forward(ctx, name)
}

// Tail returns the names touched by updates after version from, when the
// gap is still covered by the recent-update ring; ok=false directs the
// caller to a full SyncState diff.
func (d *replicaRPC) Tail(from uint64) ([]string, bool, error) {
	d.r.mu.Lock()
	defer d.r.mu.Unlock()
	if from < d.r.tailFloor {
		return nil, false, nil
	}
	var names []string
	for _, e := range d.r.tail {
		if e.Version > from {
			names = append(names, e.Name)
		}
	}
	return names, true, nil
}

// SyncState returns the versioned table: bound names with versions, and
// tombstones with versions. The caller fetches the bindings it is behind
// on and applies the tombstones directly.
func (d *replicaRPC) SyncState() ([]string, []uint64, []string, []uint64, error) {
	bindings, tombs, _ := d.r.agent.SnapshotV()
	bn := make([]string, len(bindings))
	bv := make([]uint64, len(bindings))
	for i, b := range bindings {
		bn[i], bv[i] = b.Name, b.Version
	}
	tn := make([]string, len(tombs))
	tv := make([]uint64, len(tombs))
	for i, t := range tombs {
		tn[i], tv[i] = t.Name, t.Version
	}
	return bn, bv, tn, tv, nil
}

// Fetch returns one name's current state: its reference and version, or
// deleted=true with the tombstone version, or (nil, 0, false) when the
// replica has never seen the name.
func (d *replicaRPC) Fetch(name string) (*core.Ref, uint64, bool, error) {
	if ref, v, ok := d.r.agent.Binding(name); ok {
		return ref, v, false, nil
	}
	if v, ok := d.r.agent.Tomb(name); ok {
		return nil, v, true, nil
	}
	return nil, 0, false, nil
}

// Subscribe registers sink for pushed lease invalidations: every applied
// update is sent as a one-way Invalidate(name, version) call on sink.
func (d *replicaRPC) Subscribe(sink *core.Ref) error {
	if sink == nil {
		return errors.New("registry: Subscribe without a sink")
	}
	dup, err := sink.Dup()
	if err != nil {
		return err
	}
	d.r.mu.Lock()
	already := false
	for _, s := range d.r.subs {
		if s.ref == dup {
			already = true
			break
		}
	}
	if !already {
		d.r.subs = append(d.r.subs, &subscriber{ref: dup})
	}
	d.r.mu.Unlock()
	if already {
		// Already subscribed: keep a single hold.
		dup.Release()
	}
	return nil
}

// Unsubscribe drops sink from the invalidation push list.
func (d *replicaRPC) Unsubscribe(sink *core.Ref) error {
	if sink == nil {
		return nil
	}
	d.r.mu.Lock()
	var dead *core.Ref
	for i, s := range d.r.subs {
		if s.ref == sink {
			dead = s.ref
			d.r.subs = append(d.r.subs[:i], d.r.subs[i+1:]...)
			break
		}
	}
	d.r.mu.Unlock()
	if dead != nil {
		dead.Release()
	}
	return nil
}

// asU64 converts a decoded numeric result tolerantly.
func asU64(v any) uint64 {
	switch x := v.(type) {
	case uint64:
		return x
	case int64:
		return uint64(x)
	case uint32:
		return uint64(x)
	case int32:
		return uint64(x)
	case int:
		return uint64(x)
	case float64:
		return uint64(x)
	default:
		return 0
	}
}
