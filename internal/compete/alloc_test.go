package compete

import (
	"testing"

	"radionet/internal/graph"
	"radionet/internal/rng"
)

// After one full clustering slot of a cd17 broadcast, every buffer the
// bulk path uses has reached its working size, so a round must allocate
// nothing: the member indexes are built by the constructor, and the
// engine's transmit buffers are reused across rounds.
func TestBulkStepAllocatesNothing(t *testing.T) {
	g := graph.RandomTree(2000, rng.New(3))
	b, err := NewBroadcast(g, g.DiameterEstimate(), Config{}, 1, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	slot := int64(0)
	for _, fs := range [][]fine{b.mains, b.bgs} {
		for _, f := range fs {
			slot = max(slot, f.slotLen)
		}
	}
	for r := int64(0); r < numLanes*slot; r++ {
		b.Engine.Step()
	}
	if allocs := testing.AllocsPerRun(400, b.Engine.Step); allocs != 0 {
		t.Fatalf("Engine.Step allocates %.2f times per round on the bulk path, want 0", allocs)
	}
}
