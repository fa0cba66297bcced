// Package cluster turns independent estimation-service nodes into a
// coordinator-free cluster. It provides the three node-side building blocks
// the service layer composes:
//
//   - Ring: a consistent-hash ring with virtual nodes mapping index keys
//     ("table.column") to deterministic R-way replica sets. Placement depends
//     only on the member ID set and the vnode count, so every node and every
//     cluster-aware client computes identical ownership without talking to a
//     coordinator, and adding or removing one member moves only the expected
//     ~1/N fraction of keys.
//
//   - Membership: the known peers with alive/suspect/dead state driven by an
//     injectable clock (the same testing seam the resilience breaker uses),
//     fed by a lightweight HTTP heartbeat/gossip exchange that also carries
//     each node's catalog generation, content hash, and mutation epoch.
//
//   - Node: the per-process agent tying the two together: it gossips with
//     peers on a fixed heartbeat, rebuilds the ring when the member set
//     changes, exports per-peer health metrics, keeps the Lamport mutation
//     clock, and is the one way a peer's catalog version enters this node:
//     a write's coordinator pushes it (HandlePush), and a pull fetches
//     whatever differs in a peer's digest (Sync). Both merge through the
//     same tail, which takes a key iff the peer's version orders after the
//     held one.
//
// The serving-path integration (write quorums over the owner set, quorum
// pushes, ingest forwarding to an owner, read fences) lives in
// internal/service; the cluster-aware client lives next to the plain
// retrying client there too.
// This package deliberately has no dependency on the service layer.
package cluster

import (
	"fmt"
	"sort"
	"strconv"
)

// Ring defaults.
const (
	DefaultVNodes   = 64
	DefaultReplicas = 2

	// MaxReplicas bounds R so ownership checks can use fixed-size scratch
	// space on the serving hot path.
	MaxReplicas = 8
)

// ringPoint is one virtual node on the ring: a hash position owned by a
// member (by index into Ring.members).
type ringPoint struct {
	hash   uint64
	member int32
}

// Ring is an immutable consistent-hash ring. Build with BuildRing; all
// methods are safe for concurrent use (the ring never mutates, so swapping
// rings is one atomic pointer store for the caller).
type Ring struct {
	vnodes  int
	members []string // sorted, deduped
	points  []ringPoint
}

// BuildRing constructs a ring over the given member IDs with vnodes virtual
// nodes per member (0 = DefaultVNodes). Members are deduped and sorted, so
// any permutation of the same set yields an identical ring. An empty member
// set yields a ring whose lookups return nothing.
func BuildRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	sorted := append([]string(nil), members...)
	sort.Strings(sorted)
	deduped := sorted[:0]
	for i, m := range sorted {
		if i == 0 || m != sorted[i-1] {
			deduped = append(deduped, m)
		}
	}
	r := &Ring{
		vnodes:  vnodes,
		members: deduped,
		points:  make([]ringPoint, 0, len(deduped)*vnodes),
	}
	var buf []byte
	for mi, m := range r.members {
		for v := 0; v < vnodes; v++ {
			buf = append(buf[:0], m...)
			buf = append(buf, '#')
			buf = strconv.AppendInt(buf, int64(v), 10)
			r.points = append(r.points, ringPoint{hash: fnv64a(buf), member: int32(mi)})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break on member index so placement
		// stays deterministic across processes.
		return r.points[i].member < r.points[j].member
	})
	return r
}

// fnv64a is the 64-bit FNV-1a hash run through a murmur-style finalizer —
// dependency-free and stable across platforms and releases, which the golden
// placement test pins. The finalizer matters: ring order sorts on the full
// uint64, and raw FNV-1a leaves the high bits poorly mixed for short keys
// ("orders.o_custkey"-sized), which clusters placements badly.
func fnv64a(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return mix64(h)
}

// fnv64aString is fnv64a over a string without copying.
func fnv64aString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return mix64(h)
}

// mix64 is the MurmurHash3 64-bit finalizer: full avalanche, so every input
// bit flips every output bit with probability ~1/2.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Members lists the ring's member IDs in sorted order (a copy).
func (r *Ring) Members() []string {
	return append([]string(nil), r.members...)
}

// Len reports the number of members.
func (r *Ring) Len() int { return len(r.members) }

// VNodes reports the virtual nodes per member.
func (r *Ring) VNodes() int { return r.vnodes }

// start returns the index of the first ring point at or after the key's hash
// (wrapping to 0 past the end).
func (r *Ring) start(key string) int {
	h := fnv64aString(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// ownersInto walks the ring clockwise from the key's position, collecting up
// to n distinct member indices into dst (len(dst) >= n). It returns the
// number collected. Allocation-free: the scratch is caller-owned.
func (r *Ring) ownersInto(key string, n int, dst []int32) int {
	if len(r.points) == 0 || n <= 0 {
		return 0
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	found := 0
	start := r.start(key)
	for i := 0; i < len(r.points) && found < n; i++ {
		m := r.points[(start+i)%len(r.points)].member
		dup := false
		for j := 0; j < found; j++ {
			if dst[j] == m {
				dup = true
				break
			}
		}
		if !dup {
			dst[found] = m
			found++
		}
	}
	return found
}

// Owners returns the ordered replica set for key: the n distinct members
// encountered walking clockwise from the key's ring position. The first
// entry is the primary owner.
func (r *Ring) Owners(key string, n int) []string {
	if n > MaxReplicas {
		n = MaxReplicas
	}
	var scratch [MaxReplicas]int32
	found := r.ownersInto(key, n, scratch[:])
	out := make([]string, found)
	for i := 0; i < found; i++ {
		out[i] = r.members[scratch[i]]
	}
	return out
}

// Owns reports whether member is in the key's n-way replica set. It is
// allocation-free — the form request handlers use for ownership checks.
func (r *Ring) Owns(member, key string, n int) bool {
	if n > MaxReplicas {
		n = MaxReplicas
	}
	var scratch [MaxReplicas]int32
	found := r.ownersInto(key, n, scratch[:])
	for i := 0; i < found; i++ {
		if r.members[scratch[i]] == member {
			return true
		}
	}
	return false
}

// String summarizes the ring for logs.
func (r *Ring) String() string {
	return fmt.Sprintf("ring(%d members, %d vnodes)", len(r.members), r.vnodes)
}
