package cluster

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"radionet/internal/graph"
	"radionet/internal/rng"
)

// radixOrder returns the source order sortSources gives keys.
func radixOrder(keys []float64) []int32 {
	var s Scratch
	s.grow(len(keys))
	for i, f := range keys {
		s.key[i] = sourceKey(f)
		s.id[i] = int32(i)
	}
	s.sortSources(len(keys))
	return slices.Clone(s.id[:len(keys)])
}

// stableOrder is the reference: ids sorted by (key, id).
func stableOrder(keys []float64) []int32 {
	ids := make([]int32, len(keys))
	for i := range ids {
		ids[i] = int32(i)
	}
	slices.SortStableFunc(ids, func(a, b int32) int { return cmp.Compare(keys[a], keys[b]) })
	return ids
}

func checkSourceOrder(t *testing.T, keys []float64) {
	t.Helper()
	for _, f := range keys {
		if back := keyFloat(sourceKey(f)); back != f || (f != 0 && math.Float64bits(back) != math.Float64bits(f)) {
			t.Fatalf("keyFloat(sourceKey(%v)) = %v", f, back)
		}
	}
	if got, want := radixOrder(keys), stableOrder(keys); !slices.Equal(got, want) {
		t.Fatalf("keys %v: radix order %v, want %v", keys, got, want)
	}
}

func TestSourceOrderEdgeCases(t *testing.T) {
	negZero := math.Copysign(0, -1)
	tiny := math.SmallestNonzeroFloat64
	cases := [][]float64{
		nil,
		{-3},
		{2, 1},
		{1, 1},
		{negZero, 0},
		{0, negZero, 0, negZero},
		{-1, negZero, 1, 0, -tiny, tiny},
		{tiny, 2 * tiny, -tiny, -2 * tiny, 0x1p-1022, -0x1p-1022},
		{math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), 1e300, -1e300},
		{5, 5, 5, -5, -5, 5},
		{-0.5, -2.25, -0.5, -7, -2.25, -0.5},
	}
	for _, keys := range cases {
		checkSourceOrder(t, keys)
	}
	r := rng.New(3)
	keys := make([]float64, 2000)
	for i := range keys {
		keys[i] = -r.Exp(0.1) // the shape Partition sorts
		if i%7 == 0 {
			keys[i] = keys[i/2]
		}
	}
	checkSourceOrder(t, keys)
}

// FuzzSourceOrder feeds arbitrary non-NaN float bit patterns, 8 bytes a
// key, through the radix sort and the stable reference.
func FuzzSourceOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Copysign(0, -1))))
	seed := binary.LittleEndian.AppendUint64(nil, math.Float64bits(-1.5))
	seed = binary.LittleEndian.AppendUint64(seed, 0)
	seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(-1.5))
	seed = binary.LittleEndian.AppendUint64(seed, 1)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		var keys []float64
		for ; len(data) >= 8; data = data[8:] {
			if k := math.Float64frombits(binary.LittleEndian.Uint64(data)); !math.IsNaN(k) {
				keys = append(keys, k)
			}
		}
		checkSourceOrder(t, keys)
	})
}

func TestPartitionTinyGraphs(t *testing.T) {
	for n := 0; n <= 2; n++ {
		g := graph.Path(n)
		p := Partition(g, 0.5, rng.New(1))
		if err := p.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if n == 1 && (p.Center[0] != 0 || p.Dist[0] != 0 || p.Parent[0] != -1) {
			t.Fatalf("n=1: center %d dist %d parent %d", p.Center[0], p.Dist[0], p.Parent[0])
		}
	}
}

// TestPartitionTiesKeepOwnShift drives the merge with integer shifts, where
// keys tie across clusters all the time, and checks it against brute
// force: every node's key −δ_c + dist(c, v) is the minimum over all
// centers, and a node whose own shift attains that minimum is its own
// center (a source wins an equal-key relaxation).
func TestPartitionTiesKeepOwnShift(t *testing.T) {
	r := rng.New(77)
	graphs := []*graph.Graph{
		graph.Path(40),
		graph.Grid(7, 9),
		graph.PathOfCliques(6, 5),
		graph.RandomTree(80, r.Fork(1)),
		graph.Gnp(60, 0.08, r.Fork(2)),
	}
	var scr Scratch
	for _, g := range graphs {
		n := g.N()
		hops := make([][]int32, n)
		for v := range hops {
			hops[v] = g.BFS(v)
		}
		for trial := 0; trial < 20; trial++ {
			res := &Result{
				Beta:   1,
				Center: make([]int32, n),
				Parent: make([]int32, n),
				Dist:   make([]int32, n),
				Delta:  make([]float64, n),
				g:      g,
			}
			for v := range res.Delta {
				res.Delta[v] = float64(r.Intn(1 + trial%5))
			}
			scr.settle(g, res)
			if err := res.Validate(); err != nil {
				t.Fatalf("%v trial %d: %v", g, trial, err)
			}
			for v := 0; v < n; v++ {
				best := math.Inf(1)
				for u := 0; u < n; u++ {
					if d := hops[v][u]; d != graph.Unreached {
						best = min(best, float64(d)-res.Delta[u])
					}
				}
				c := res.Center[v]
				if res.Dist[v] != hops[v][c] || float64(res.Dist[v])-res.Delta[c] != best {
					t.Fatalf("%v trial %d: node %d has center %d at dist %d, not a minimum-key center (key %v)",
						g, trial, v, c, res.Dist[v], best)
				}
				if -res.Delta[v] == best && c != int32(v) {
					t.Fatalf("%v trial %d: node %d ties its own shift but joined center %d", g, trial, v, c)
				}
			}
		}
	}
}

// TestPartitionScratchAllocs pins the warm path: with a reused Scratch,
// PartitionScratch allocates only the Result and its four slices.
func TestPartitionScratchAllocs(t *testing.T) {
	g := graph.PathOfCliques(16, 80)
	r := rng.New(5)
	var scr Scratch
	PartitionScratch(g, 0.25, r, &scr)
	if got := testing.AllocsPerRun(20, func() { PartitionScratch(g, 0.25, r, &scr) }); got != 5 {
		t.Fatalf("PartitionScratch with a warm scratch: %v allocs per call, want 5", got)
	}
}
