package graph

import (
	"testing"
	"testing/quick"

	"radionet/internal/rng"
)

func TestBuilderDedupAndLoops(t *testing.T) {
	b := NewBuilder("t", 4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate in reverse
	b.AddEdge(0, 1) // exact duplicate
	b.AddEdge(2, 2) // self loop discarded
	b.AddEdge(2, 3)
	g := b.Build()
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 || g.Degree(2) != 1 {
		t.Fatalf("unexpected degrees %v", g.SortedDegrees())
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder("t", 2).AddEdge(0, 2)
}

func TestHasEdge(t *testing.T) {
	g := Cycle(5)
	for i := 0; i < 5; i++ {
		if !g.HasEdge(i, (i+1)%5) {
			t.Fatalf("missing cycle edge %d-%d", i, (i+1)%5)
		}
	}
	if g.HasEdge(0, 2) {
		t.Fatal("unexpected chord 0-2")
	}
}

func TestEdgesIteration(t *testing.T) {
	g := Complete(6)
	count := 0
	g.Edges(func(u, v int) bool {
		if u >= v {
			t.Fatalf("Edges yielded u=%d >= v=%d", u, v)
		}
		count++
		return true
	})
	if count != 15 {
		t.Fatalf("Edges yielded %d edges, want 15", count)
	}
	// Early stop.
	count = 0
	g.Edges(func(u, v int) bool { count++; return count < 3 })
	if count != 3 {
		t.Fatalf("early stop yielded %d", count)
	}
}

func TestGeneratorShapes(t *testing.T) {
	tests := []struct {
		name    string
		g       *Graph
		n, m, d int // d = expected diameter, -1 to skip
	}{
		{"path", Path(10), 10, 9, 9},
		{"path1", Path(1), 1, 0, 0},
		{"cycle", Cycle(8), 8, 8, 4},
		{"cycleOdd", Cycle(9), 9, 9, 4},
		{"star", Star(7), 7, 6, 2},
		{"complete", Complete(5), 5, 10, 1},
		{"grid", Grid(3, 4), 12, 17, 5},
		{"gridRow", Grid(1, 6), 6, 5, 5},
		{"hypercube", Hypercube(4), 16, 32, 4},
		{"tree", BalancedTree(2, 3), 15, 14, 6},
		{"treeUnary", BalancedTree(1, 4), 5, 4, 4},
		{"cliquepath", PathOfCliques(4, 3), 12, 15, 7},
		{"cliquepath1", PathOfCliques(1, 5), 5, 10, 1},
		{"caterpillar", Caterpillar(5, 2), 15, 14, 6},
		{"dumbbell", Dumbbell(4, 3), 11, 16, 6},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.g.N(); got != tc.n {
				t.Errorf("N = %d, want %d", got, tc.n)
			}
			if got := tc.g.M(); got != tc.m {
				t.Errorf("M = %d, want %d", got, tc.m)
			}
			if !tc.g.IsConnected() {
				t.Error("not connected")
			}
			if tc.d >= 0 {
				if got := tc.g.Diameter(); got != tc.d {
					t.Errorf("Diameter = %d, want %d", got, tc.d)
				}
			}
		})
	}
}

func TestPathOfCliquesDiameterFormula(t *testing.T) {
	// Diameter of k cliques of size s >= 3 chained by bridges: one hop from
	// a non-port node to the exit port, k-1 bridge hops, one hop across
	// each of the k-2 intermediate cliques, one final hop to a non-port
	// node: 2k-1 in total.
	for _, k := range []int{1, 2, 3, 5, 8} {
		g := PathOfCliques(k, 4)
		want := 2*k - 1
		if k == 1 {
			want = 1
		}
		if got := g.Diameter(); got != want {
			t.Errorf("PathOfCliques(%d,4) diameter = %d, want %d", k, got, want)
		}
	}
}

func TestRandomGenerators(t *testing.T) {
	r := rng.New(1)
	t.Run("randtree", func(t *testing.T) {
		g := RandomTree(200, r.Fork(1))
		if g.N() != 200 || g.M() != 199 || !g.IsConnected() {
			t.Fatalf("bad random tree: %v connected=%v", g, g.IsConnected())
		}
	})
	t.Run("gnp", func(t *testing.T) {
		g := Gnp(300, 0.02, r.Fork(2))
		if g.N() != 300 || !g.IsConnected() {
			t.Fatalf("bad gnp: %v", g)
		}
		// Expected ~ 299 tree + 0.02*C(300,2) ≈ 1196 edges total.
		if g.M() < 600 || g.M() > 2500 {
			t.Fatalf("gnp edge count %d outside plausible range", g.M())
		}
	})
	t.Run("geometric", func(t *testing.T) {
		g := RandomGeometric(400, 0.08, r.Fork(3))
		if g.N() != 400 || !g.IsConnected() {
			t.Fatalf("bad geometric: %v", g)
		}
	})
	t.Run("regular", func(t *testing.T) {
		g := RandomRegular(100, 4, r.Fork(4))
		if !g.IsConnected() {
			t.Fatal("regular graph disconnected")
		}
		for v := 0; v < g.N(); v++ {
			if g.Degree(v) != 4 {
				t.Fatalf("node %d degree %d, want 4", v, g.Degree(v))
			}
		}
	})
}

func TestBFSDistancesOnGrid(t *testing.T) {
	g := Grid(4, 5)
	dist := g.BFS(0)
	for r := 0; r < 4; r++ {
		for c := 0; c < 5; c++ {
			if got := int(dist[r*5+c]); got != r+c {
				t.Fatalf("dist[%d,%d] = %d, want %d", r, c, got, r+c)
			}
		}
	}
}

func TestMultiBFS(t *testing.T) {
	g := Path(10)
	dist := g.MultiBFS([]int{0, 9})
	want := []int32{0, 1, 2, 3, 4, 4, 3, 2, 1, 0}
	for i, d := range dist {
		if d != want[i] {
			t.Fatalf("MultiBFS dist[%d] = %d, want %d", i, d, want[i])
		}
	}
}

func TestBFSTreeCanonical(t *testing.T) {
	g := Cycle(6)
	_, p1 := g.BFSTree(0)
	_, p2 := g.BFSTree(0)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("BFSTree not deterministic")
		}
	}
	// Node 3 is equidistant via 1-2 and 5-4; canonical parent must come
	// from the smaller-id branch (2).
	if p1[3] != 2 {
		t.Fatalf("canonical parent of 3 = %d, want 2", p1[3])
	}
}

func TestShortestPathProperties(t *testing.T) {
	r := rng.New(5)
	g := Gnp(150, 0.03, r)
	dist := g.BFS(7)
	for _, v := range []int{0, 50, 100, 149} {
		p := g.ShortestPath(7, v)
		if len(p) != int(dist[v])+1 {
			t.Fatalf("path length %d, want %d", len(p)-1, dist[v])
		}
		if p[0] != 7 || p[len(p)-1] != int32(v) {
			t.Fatalf("path endpoints wrong: %v", p)
		}
		for i := 0; i+1 < len(p); i++ {
			if !g.HasEdge(int(p[i]), int(p[i+1])) {
				t.Fatalf("path step %d-%d not an edge", p[i], p[i+1])
			}
		}
	}
}

func TestDiameterEstimateMatchesExactOnFamilies(t *testing.T) {
	r := rng.New(9)
	graphs := []*Graph{
		Path(50), Cycle(33), Grid(6, 9), BalancedTree(3, 4),
		PathOfCliques(6, 4), RandomTree(300, r),
	}
	for _, g := range graphs {
		exact, est := g.Diameter(), g.DiameterEstimate()
		if est > exact {
			t.Fatalf("%v: estimate %d exceeds exact %d", g, est, exact)
		}
		// Double sweep is exact on trees and these structured families.
		if est != exact {
			t.Errorf("%v: estimate %d != exact %d", g, est, exact)
		}
	}
}

func TestQuickGnpInvariants(t *testing.T) {
	r := rng.New(77)
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(func(seed uint64, nn uint8, pp uint8) bool {
		n := int(nn%100) + 2
		p := float64(pp%50) / 100
		g := Gnp(n, p, r.Fork(seed))
		if g.N() != n || !g.IsConnected() {
			return false
		}
		// Handshake: sum of degrees = 2m, no self loops, sorted neighbors.
		sum := 0
		for v := 0; v < n; v++ {
			nb := g.Neighbors(v)
			for i, w := range nb {
				if int(w) == v {
					return false
				}
				if i > 0 && nb[i-1] >= w {
					return false
				}
			}
			sum += len(nb)
		}
		return sum == 2*g.M()
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	g := NewBuilder("empty", 0).Build()
	if g.N() != 0 || g.M() != 0 || !g.IsConnected() {
		t.Fatal("empty graph misbehaves")
	}
	s := Path(1)
	if s.Diameter() != 0 || s.Eccentricity(0) != 0 {
		t.Fatal("singleton graph misbehaves")
	}
}

func TestMultiBFSAlive(t *testing.T) {
	// Path 0-1-2-3-4-5: killing node 2 cuts {3,4,5} off from source 0.
	g := Path(6)
	alive := []bool{true, true, false, true, true, true}
	dist := g.MultiBFSAlive([]int{0}, alive)
	want := []int32{0, 1, Unreached, Unreached, Unreached, Unreached}
	for v := range want {
		if dist[v] != want[v] {
			t.Fatalf("dist[%d] = %d, want %d (full: %v)", v, dist[v], want[v], dist)
		}
	}
	// A dead source contributes nothing; a second alive source revives the
	// far side and distances count alive hops only.
	dist = g.MultiBFSAlive([]int{2, 5}, alive)
	want = []int32{Unreached, Unreached, Unreached, 2, 1, 0}
	for v := range want {
		if dist[v] != want[v] {
			t.Fatalf("two-source dist[%d] = %d, want %d (full: %v)", v, dist[v], want[v], dist)
		}
	}
	// All alive reduces to MultiBFS.
	all := []bool{true, true, true, true, true, true}
	ref := g.MultiBFS([]int{0})
	got := g.MultiBFSAlive([]int{0}, all)
	for v := range ref {
		if ref[v] != got[v] {
			t.Fatalf("all-alive mismatch at %d: %d vs %d", v, got[v], ref[v])
		}
	}
}

// TestReserve checks Reserve prevents reallocation for the declared count
// and is safe to call with zero or after edges exist.
func TestReserve(t *testing.T) {
	b := NewBuilder("r", 100)
	b.Reserve(0)
	b.Reserve(-1)
	b.AddEdge(0, 1)
	b.Reserve(50)
	head := &b.edges[0]
	for i := 0; i < 50; i++ {
		b.AddEdge(i, i+2)
	}
	if head != &b.edges[0] {
		t.Fatal("Reserve(50) did not prevent reallocation")
	}
	g := b.Build()
	if g.M() != 51 {
		t.Fatalf("M = %d, want 51", g.M())
	}
}
