package cluster

import "sort"

// virtualNodes is the points-per-peer on the hash ring. Every node must use
// the same count for ownership to agree, so it is a constant, not an option.
const virtualNodes = 128

// The consistent-hash ring assigns every graph fingerprint an owning peer.
// Each member peer contributes virtualNodes points, hashed from its
// canonical URL, and a key is owned by the peer of the first point at or
// after the key's (remixed) hash, wrapping around. Two properties carry the
// cluster design:
//
//   - Determinism: the points depend only on the canonical peer URLs and the
//     vnode count, so every node that sees the same membership computes the
//     same owner for every fingerprint — which is what lets the owner's
//     single-flight group collapse a cluster-wide thundering herd into one
//     solve.
//   - Minimal remap: removing a peer removes only that peer's points, so
//     exactly the keys it owned move (≈1/N of the keyspace); adding a peer
//     only steals keys for the new peer. Keys never shuffle between
//     surviving peers, which keeps their caches warm across membership
//     changes.

// ringPoint is one virtual node: a position on the hash circle and the index
// of the peer that owns it.
type ringPoint struct {
	hash uint64
	peer int32
}

// ring is an immutable snapshot of the hash circle; Cluster swaps in a new
// one on every membership change.
type ring struct {
	points []ringPoint
}

// fnv64 is FNV-1a over s, kept dependency-free.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix64 is the splitmix64 finalizer: a cheap bijective scrambler. Keys pass
// through it so ring placement is independent of any structure in the
// fingerprint, and vnode indices pass through it so one peer's points spread uniformly.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// buildRing places vnodes points for every member index over the canonical
// peer URLs. members may be any subset of peers (the alive set); the point
// positions of a given peer do not depend on which other peers are members,
// which is what gives the minimal-remap property.
func buildRing(peers []string, members []int, vnodes int) ring {
	pts := make([]ringPoint, 0, len(members)*vnodes)
	for _, pi := range members {
		base := fnv64(peers[pi])
		for v := 0; v < vnodes; v++ {
			h := mix64(base ^ mix64(uint64(v)+0x9e3779b97f4a7c15))
			pts = append(pts, ringPoint{hash: h, peer: int32(pi)})
		}
	}
	// Ties broken by peer index so every node sorts identically even in the
	// (astronomically unlikely) event of a point-hash collision.
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].hash != pts[j].hash {
			return pts[i].hash < pts[j].hash
		}
		return pts[i].peer < pts[j].peer
	})
	return ring{points: pts}
}

// owner returns the peer index owning fingerprint fp, or -1 on an empty
// ring.
func (r ring) owner(fp uint64) int {
	if len(r.points) == 0 {
		return -1
	}
	kh := mix64(fp)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= kh })
	if i == len(r.points) {
		i = 0
	}
	return int(r.points[i].peer)
}
