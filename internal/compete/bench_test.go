package compete

import (
	"testing"

	"radionet/internal/graph"
	"radionet/internal/radio"
	"radionet/internal/rng"
)

// The Compete hot-path benchmarks: cd17 and hw16 broadcast over an n grid
// on the sparse families (random recursive tree, sparse G(n,p)), matching
// the style of internal/decay/bench_test.go. The default configuration
// runs the bulk fast path (contiguous state + ActBulk/RecvBulk, shared
// lane clocks); the ...PerNode variants force the per-node reference path
// via an identity Wrap hook, which is the pre-bulk engine configuration.
// Round counts are identical by construction; only wall time and
// allocations differ. See DESIGN.md §5 for recorded numbers.

func benchCompete(b *testing.B, g *graph.Graph, hw16, perNode bool) {
	b.Helper()
	d := g.DiameterEstimate()
	cfg := Config{CurtailLogLog: hw16}
	if perNode {
		cfg.Wrap = func(_ int, n radio.Node) radio.Node { return n }
	}
	pre := NewPre(g, d, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	var rounds int64
	for i := 0; i < b.N; i++ {
		bc, err := NewBroadcastPre(pre, 1, 0, 9)
		if err != nil {
			b.Fatal(err)
		}
		var done bool
		rounds, done = bc.Run(8 * bc.Budget())
		if !done {
			b.Fatal("broadcast incomplete")
		}
	}
	b.ReportMetric(float64(rounds), "radio-rounds")
}

func BenchmarkCD17Broadcast10kRandTree(b *testing.B) {
	benchCompete(b, graph.RandomTree(10_000, rng.New(7)), false, false)
}

func BenchmarkCD17Broadcast100kRandTree(b *testing.B) {
	benchCompete(b, graph.RandomTree(100_000, rng.New(7)), false, false)
}

func BenchmarkCD17Broadcast100kGnp(b *testing.B) {
	benchCompete(b, graph.Gnp(100_000, 0.00005, rng.New(9)), false, false)
}

func BenchmarkHW16Broadcast100kRandTree(b *testing.B) {
	benchCompete(b, graph.RandomTree(100_000, rng.New(7)), true, false)
}

// The per-node reference configuration, kept at n = 10^4 so the CI
// benchmark smoke pass stays fast; the bulk-vs-reference gap is already
// visible at this scale.
func BenchmarkCD17Broadcast10kRandTreePerNode(b *testing.B) {
	benchCompete(b, graph.RandomTree(10_000, rng.New(7)), false, true)
}

// BenchmarkCD17LeaderCliquePath16x80 mirrors perfbench's
// cd17-leader-cliques workload: leader election on 16 cliques of 80, a
// dense graph with many candidate sources, one election per iteration
// through a shared Pre.
func BenchmarkCD17LeaderCliquePath16x80(b *testing.B) {
	g := graph.PathOfCliques(16, 80)
	pre := NewPre(g, g.DiameterEstimate(), Config{})
	b.ReportAllocs()
	b.ResetTimer()
	var rounds int64
	for i := 0; i < b.N; i++ {
		le, err := NewLeaderElectionPre(pre, LeaderConfig{}, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		var done bool
		rounds, done = le.Run(8 * le.Budget())
		if !done {
			b.Fatal("election incomplete")
		}
		if err := le.Verify(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rounds), "radio-rounds")
}
