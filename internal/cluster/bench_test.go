package cluster

import (
	"testing"

	"radionet/internal/graph"
	"radionet/internal/rng"
)

// Partition(β) build cost with a warm Scratch, as compete's constructor
// calls it. See DESIGN.md §5 for recorded numbers.

func benchPartition(b *testing.B, g *graph.Graph, beta float64) {
	b.Helper()
	r := rng.New(1)
	var scr Scratch
	PartitionScratch(g, beta, r, &scr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PartitionScratch(g, beta, r, &scr)
	}
}

func BenchmarkPartitionCliquePath16x80(b *testing.B) {
	benchPartition(b, graph.PathOfCliques(16, 80), 0.25)
}

func BenchmarkPartitionRandTree5000(b *testing.B) {
	benchPartition(b, graph.RandomTree(5000, rng.New(7)), 0.25)
}
