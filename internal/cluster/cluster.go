// Package cluster implements the exponential-shift graph clustering of
// Miller, Peng and Xu (SPAA'13) that the paper calls Partition(β)
// (Lemma 2.1), in two forms:
//
//   - a centralized reference implementation used as the precomputation
//     oracle of the Compete pipeline and by all clustering experiments, and
//   - a distributed radio-network protocol (Decay-layered wave expansion)
//     that realizes Lemma 2.1's "can be implemented in the radio network
//     setting in O(log³n/β) rounds".
//
// Partition(β) has every node v draw an exponential variate δ_v with rate
// β and assign v to the center u maximizing δ_u − dist(u, v). Guarantees
// (Lemma 2.1): strong cluster diameter O(log n/β) whp, and every edge is
// cut with probability O(β). Theorem 2.2 (the paper's key analytic
// contribution) concerns the expected distance to the cluster center when
// β = 2^-j for a random j ∈ [0.01·log D, 0.1·log D].
package cluster

import (
	"fmt"
	"math"

	"radionet/internal/graph"
	"radionet/internal/rng"
)

// Result is a clustering of a graph: an assignment of every node to a
// cluster center such that centers are their own centers and every cluster
// induces a connected subgraph containing a shortest path from each member
// to the center.
type Result struct {
	Beta   float64
	Center []int32 // Center[v] = v's cluster center
	// Parent[v] is the first-settled neighbor of v on a shortest
	// in-cluster path to Center[v]; Parent[center] = -1. Among several
	// such neighbors the choice follows settle order, so only the forest
	// invariants that Validate checks are part of the contract.
	Parent []int32
	Dist   []int32   // hop distance from v to Center[v]
	Delta  []float64 // the exponential shifts used

	g *graph.Graph
}

// Scratch holds reusable Partition buffers (the source order, the radix
// sort's second buffers, the relaxation FIFO and the node states),
// letting callers that build many partitions of one graph — the Compete
// precomputation, trial campaigns — skip the per-call allocations. The
// zero value is ready to use; a Scratch is not safe for concurrent use.
type Scratch struct {
	key, keyTmp []uint64 // source keys (sourceKey form); keyTmp later holds queued keys
	id, idTmp   []int32  // source order; idTmp later holds the FIFO
	state       []uint8  // unseen, queued or settled
}

// Node states of the merge.
const (
	unseen uint8 = iota
	queued
	settled
)

func (s *Scratch) grow(n int) {
	if cap(s.key) < n {
		s.key, s.keyTmp = make([]uint64, n), make([]uint64, n)
		s.id, s.idTmp = make([]int32, n), make([]int32, n)
		s.state = make([]uint8, n)
	}
}

// sourceKey maps a non-NaN float to a uint64 whose unsigned order is the
// float order: flip every bit of a negative value, only the sign bit of a
// non-negative one. −0 is first folded into +0, so keys that compare
// equal as floats map to equal integers.
func sourceKey(f float64) uint64 {
	if f == 0 {
		f = 0
	}
	b := math.Float64bits(f)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// keyFloat inverts sourceKey.
func keyFloat(k uint64) float64 {
	if k>>63 != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

// sortSources orders s.key[:n] ascending and carries s.id[:n] along with
// an LSD radix sort, 8 passes of 8 bits. Each pass is stable, so equal
// keys keep their id order. A pass whose byte is the same for every key
// moves nothing and is skipped.
func (s *Scratch) sortSources(n int) {
	if n == 0 {
		return
	}
	var count [8][256]int32
	for _, k := range s.key[:n] { // unrolled: a loop over p costs half the sort
		count[0][byte(k)]++
		count[1][byte(k>>8)]++
		count[2][byte(k>>16)]++
		count[3][byte(k>>24)]++
		count[4][byte(k>>32)]++
		count[5][byte(k>>40)]++
		count[6][byte(k>>48)]++
		count[7][byte(k>>56)]++
	}
	for p := range count {
		c := &count[p]
		shift := 8 * p
		if c[byte(s.key[0]>>shift)] == int32(n) {
			continue
		}
		var sum int32
		for b, k := range c {
			c[b] = sum
			sum += k
		}
		src, dst := s.key[:n], s.keyTmp[:n]
		srcID, dstID := s.id[:n], s.idTmp[:n]
		for i, k := range src {
			b := byte(k >> shift)
			dst[c[b]], dstID[c[b]] = k, srcID[i]
			c[b]++
		}
		s.key, s.keyTmp = s.keyTmp, s.key
		s.id, s.idTmp = s.idTmp, s.id
	}
}

// Partition runs the centralized Partition(β) on g using randomness from
// r. It panics if beta <= 0.
func Partition(g *graph.Graph, beta float64, r *rng.Rand) *Result {
	return PartitionScratch(g, beta, r, nil)
}

// PartitionScratch is Partition with reusable build buffers; scr may be
// nil. The result is bit-identical for every scr — the scratch only
// recycles memory.
func PartitionScratch(g *graph.Graph, beta float64, r *rng.Rand, scr *Scratch) *Result {
	if beta <= 0 {
		panic("cluster: Partition requires beta > 0")
	}
	n := g.N()
	res := &Result{
		Beta:   beta,
		Center: make([]int32, n),
		Parent: make([]int32, n),
		Dist:   make([]int32, n),
		Delta:  make([]float64, n),
		g:      g,
	}
	for v := range res.Delta {
		res.Delta[v] = r.Exp(beta)
	}
	if scr == nil {
		scr = new(Scratch)
	}
	scr.settle(g, res)
	return res
}

// settle assigns every node of res to a center given the shifts in
// res.Delta. It is a multi-source Dijkstra in which node v is a virtual
// source with key −δ_v and the first settlement of u determines its
// center. Unit edge weights mean the settled path is a shortest path to
// the center, and by the MPX argument every node on it belongs to the
// same cluster, so Dist is the strong (intra-cluster) distance.
//
// Unit weights also make a heap unnecessary. Settled keys never
// decrease, so the relaxations, each keyed one more than the key just
// settled, arrive in sorted order and fit a FIFO; the sources are sorted
// once up front. The loop pops the smaller of the two heads, taking the
// source on equal keys. A node's first relaxation carries its smallest
// relaxation key, so each node is queued at most once and the pass is
// O(n + m) after the sort.
func (s *Scratch) settle(g *graph.Graph, res *Result) {
	n := len(res.Delta)
	s.grow(n)
	for v, d := range res.Delta {
		s.key[v] = sourceKey(-d)
		s.id[v] = int32(v)
	}
	s.sortSources(n)
	src, srcID := s.key[:n], s.id[:n]
	qkey, fifo := s.keyTmp[:n], s.idTmp[:n] // qkey indexed by node
	state := s.state[:n]
	clear(state)
	center, parent, dist := res.Center, res.Parent, res.Dist
	i, head, tail := 0, 0, 0
	for remaining := n; remaining > 0; {
		var v int32
		var k uint64
		if head == tail || src[i] <= qkey[fifo[head]] {
			v, k = srcID[i], src[i]
			i++
			if state[v] == settled {
				continue
			}
			center[v], parent[v], dist[v] = v, -1, 0
		} else {
			v = fifo[head]
			head++
			if state[v] == settled {
				continue
			}
			k = qkey[v]
		}
		state[v] = settled
		remaining--
		next := sourceKey(keyFloat(k) + 1)
		c, d := center[v], dist[v]+1
		for _, w := range g.Neighbors(int(v)) {
			if state[w] == unseen {
				state[w] = queued
				center[w], parent[w], dist[w] = c, v, d
				qkey[w] = next
				fifo[tail] = w
				tail++
			}
		}
	}
}

// NumClusters returns the number of distinct cluster centers.
func (r *Result) NumClusters() int {
	seen := make(map[int32]bool)
	for _, c := range r.Center {
		seen[c] = true
	}
	return len(seen)
}

// Clusters returns the members of every cluster keyed by center.
func (r *Result) Clusters() map[int32][]int32 {
	m := make(map[int32][]int32)
	for v, c := range r.Center {
		m[c] = append(m[c], int32(v))
	}
	return m
}

// IsCut reports whether edge {u, v} has endpoints in distinct clusters.
func (r *Result) IsCut(u, v int) bool { return r.Center[u] != r.Center[v] }

// CutFraction returns the fraction of edges cut by the partition.
func (r *Result) CutFraction() float64 {
	if r.g.M() == 0 {
		return 0
	}
	cut := 0
	r.g.Edges(func(u, v int) bool {
		if r.IsCut(u, v) {
			cut++
		}
		return true
	})
	return float64(cut) / float64(r.g.M())
}

// StrongRadius returns, for each center, the maximum intra-cluster hop
// distance from the center to a member (the strong radius; the strong
// diameter is at most twice this).
func (r *Result) StrongRadius() map[int32]int32 {
	out := make(map[int32]int32)
	for v, c := range r.Center {
		if r.Dist[v] > out[c] {
			out[c] = r.Dist[v]
		}
		_ = v
	}
	return out
}

// MaxStrongRadius returns the largest strong radius over all clusters.
func (r *Result) MaxStrongRadius() int {
	max := int32(0)
	for _, d := range r.Dist {
		if d > max {
			max = d
		}
	}
	return int(max)
}

// BordersOtherCluster reports whether v has a neighbor assigned to a
// different cluster (the paper's "risky" nodes of Lemma 4.2).
func (r *Result) BordersOtherCluster(v int) bool {
	for _, w := range r.g.Neighbors(v) {
		if r.Center[w] != r.Center[v] {
			return true
		}
	}
	return false
}

// ClustersWithin returns the number of distinct clusters having a node at
// distance <= d from v (Lemma 4.3's quantity).
func (r *Result) ClustersWithin(v, d int) int {
	dist := r.g.BFS(v)
	seen := make(map[int32]bool)
	for u, du := range dist {
		if du != graph.Unreached && int(du) <= d {
			seen[r.Center[u]] = true
		}
	}
	return len(seen)
}

// Validate checks the structural invariants of a partition and returns an
// error describing the first violation found.
func (r *Result) Validate() error {
	n := r.g.N()
	for v := 0; v < n; v++ {
		c := r.Center[v]
		if c < 0 || int(c) >= n {
			return fmt.Errorf("node %d has invalid center %d", v, c)
		}
		if r.Center[c] != c {
			return fmt.Errorf("center %d of node %d is not its own center", c, v)
		}
		if int(c) == v {
			if r.Dist[v] != 0 || r.Parent[v] != -1 {
				return fmt.Errorf("center %d has dist %d parent %d", v, r.Dist[v], r.Parent[v])
			}
			continue
		}
		p := r.Parent[v]
		if p < 0 {
			return fmt.Errorf("non-center node %d has no parent", v)
		}
		if !r.g.HasEdge(v, int(p)) {
			return fmt.Errorf("parent edge %d-%d not in graph", v, p)
		}
		if r.Center[p] != c {
			return fmt.Errorf("node %d (cluster %d) has parent %d in cluster %d",
				v, c, p, r.Center[p])
		}
		if r.Dist[v] != r.Dist[p]+1 {
			return fmt.Errorf("node %d dist %d but parent dist %d", v, r.Dist[v], r.Dist[p])
		}
	}
	return nil
}

// JRange returns the paper's range of the random exponent j for fine
// clusterings: j uniform in [loFrac·log2 D, hiFrac·log2 D] (Theorem 2.2
// uses 0.01 and 0.1). The range is clamped so that at least one valid j
// exists (j >= 1) even at laptop-scale diameters where 0.01·log D < 1.
func JRange(d int, loFrac, hiFrac float64) (jmin, jmax int) {
	if d < 2 {
		return 1, 1
	}
	logD := math.Log2(float64(d))
	jmin = int(math.Floor(loFrac * logD))
	jmax = int(math.Ceil(hiFrac * logD))
	if jmin < 1 {
		jmin = 1
	}
	if jmax < jmin {
		jmax = jmin
	}
	return jmin, jmax
}
