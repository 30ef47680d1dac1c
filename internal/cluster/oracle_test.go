package cluster

import (
	"math"
	"testing"

	"radionet/internal/graph"
	"radionet/internal/rng"
)

// partitionHeap is the lazy-deletion binary-heap Partition(β) that
// PartitionScratch replaced, kept unchanged as the semantic oracle of the
// merge: a multi-source Dijkstra over every relaxation. Center, Dist and
// Delta of the two must agree element for element.
func partitionHeap(g *graph.Graph, beta float64, r *rng.Rand) *Result {
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
	q := make([]item, 0, n)
	settled := make([]bool, n)
	for v := 0; v < n; v++ {
		res.Center[v] = -1
		res.Parent[v] = -1
		res.Delta[v] = r.Exp(beta)
	}
	for v := 0; v < n; v++ {
		q = append(q, item{key: -res.Delta[v], node: int32(v), center: int32(v), parent: -1})
	}
	for i := n/2 - 1; i >= 0; i-- { // heap.Init
		heapDown(q, i, n)
	}
	remaining := n
	for remaining > 0 && len(q) > 0 {
		last := len(q) - 1 // heap.Pop
		q[0], q[last] = q[last], q[0]
		heapDown(q, 0, last)
		it := q[last]
		q = q[:last]
		v := it.node
		if settled[v] {
			continue
		}
		settled[v] = true
		remaining--
		res.Center[v] = it.center
		res.Parent[v] = it.parent
		res.Dist[v] = it.dist
		for _, w := range g.Neighbors(int(v)) {
			if !settled[w] {
				q = append(q, item{ // heap.Push
					key:    it.key + 1,
					node:   w,
					center: it.center,
					parent: v,
					dist:   it.dist + 1,
				})
				heapUp(q, len(q)-1)
			}
		}
	}
	return res
}

// item is a priority-queue entry for the multi-source Dijkstra.
type item struct {
	key    float64 // dist(u, v) - δ_v, to be minimized
	node   int32
	center int32
	parent int32
	dist   int32
}

// The sift routines replicate container/heap's up/down moves (same
// comparisons, same swaps) over the concrete item type.

func heapUp(q []item, j int) {
	for j > 0 {
		i := (j - 1) / 2 // parent
		if q[j].key >= q[i].key {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func heapDown(q []item, i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && q[j2].key < q[j1].key {
			j = j2 // = 2*i + 2  // right child
		}
		if q[j].key >= q[i].key {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
}

// TestPartitionMatchesHeapOracle pins the merge to the heap: on every
// graph family, β and seed, Center, Dist and Delta agree element for
// element, and the merge's own Parent forest passes Validate.
func TestPartitionMatchesHeapOracle(t *testing.T) {
	r := rng.New(2024)
	graphs := []*graph.Graph{
		graph.Path(300),
		graph.Grid(24, 30),
		graph.RandomTree(5000, r.Fork(1)),
		graph.PathOfCliques(16, 80),
		graph.Gnp(400, 0.02, r.Fork(2)),
		graph.RandomGeometric(400, 0.08, r.Fork(3)),
	}
	seeds := uint64(10)
	if testing.Short() {
		seeds = 3
	}
	var scr Scratch // reused across graphs of every size
	for _, g := range graphs {
		for _, beta := range []float64{1, 0.5, 0.25, 0.1, 0.03, 0.01} {
			for seed := uint64(0); seed < seeds; seed++ {
				want := partitionHeap(g, beta, rng.New(seed))
				got := PartitionScratch(g, beta, rng.New(seed), &scr)
				if err := got.Validate(); err != nil {
					t.Fatalf("%v beta=%v seed=%d: %v", g, beta, seed, err)
				}
				for v := range want.Center {
					if got.Center[v] != want.Center[v] || got.Dist[v] != want.Dist[v] ||
						math.Float64bits(got.Delta[v]) != math.Float64bits(want.Delta[v]) {
						t.Fatalf("%v beta=%v seed=%d node %d: merge (center %d, dist %d, delta %v), heap (center %d, dist %d, delta %v)",
							g, beta, seed, v, got.Center[v], got.Dist[v], got.Delta[v],
							want.Center[v], want.Dist[v], want.Delta[v])
					}
				}
			}
		}
	}
}
