package compete

import (
	"testing"

	"radionet/internal/graph"
	"radionet/internal/rng"
	"radionet/internal/schedule"
)

// indexTestInstances builds bulk-path instances whose clusterings the
// member-index and ladder-fold checks walk: the equivalence graphs, a
// tree large enough for several coarse clusters, and the no-curtailment
// ablation, whose indexes hold every node.
func indexTestInstances(t *testing.T) []*Compete {
	t.Helper()
	var out []*Compete
	graphs := append(bulkEquivGraphs(3), graph.RandomTree(1500, rng.New(11)))
	for _, g := range graphs {
		for _, cfg := range []Config{{}, {DisableCurtail: true}} {
			c, err := New(g, g.DiameterEstimate(), cfg, 5, map[int]int64{0: 1})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, c)
		}
	}
	return out
}

// Each clustering's member index must partition, for every clock k,
// exactly the nodes {v : clock(v) = k, Dist[v] <= curtail}: every such
// node appears once, in the group of its own fine center, and no node
// beyond the curtailment appears at all.
func TestMemberIndexPartitionsClockMembers(t *testing.T) {
	for _, c := range indexTestInstances(t) {
		n := c.g.N()
		s := c.bulk
		check := func(lane string, fid int, f *fine, ix *memberIndex, clock func(v int) int, nclk int) {
			if len(ix.clk) != nclk+1 || ix.clk[0] != 0 || int(ix.clk[nclk]) != len(ix.groups) {
				t.Fatalf("%s %s %d: clock bounds %v for %d groups", c.g, lane, fid, ix.clk, len(ix.groups))
			}
			if len(ix.groups) > 0 && int(ix.groups[len(ix.groups)-1].end) != len(ix.members) {
				t.Fatalf("%s %s %d: groups end at %d of %d members", c.g, lane, fid,
					ix.groups[len(ix.groups)-1].end, len(ix.members))
			}
			seen := make([]bool, n)
			from := int32(0)
			for k := 0; k < nclk; k++ {
				for g := ix.clk[k]; g < ix.clk[k+1]; g++ {
					gr := ix.groups[g]
					if gr.end <= from {
						t.Fatalf("%s %s %d: clock %d group %d is empty", c.g, lane, fid, k, g)
					}
					for i, v := range ix.members[from:gr.end] {
						switch {
						case seen[v]:
							t.Fatalf("%s %s %d: node %d listed twice", c.g, lane, fid, v)
						case clock(int(v)) != k:
							t.Fatalf("%s %s %d: node %d on clock %d listed under clock %d",
								c.g, lane, fid, v, clock(int(v)), k)
						case f.part.Center[v] != gr.center:
							t.Fatalf("%s %s %d: node %d with center %d listed under center %d",
								c.g, lane, fid, v, f.part.Center[v], gr.center)
						case f.part.Dist[v] > f.curtail:
							t.Fatalf("%s %s %d: node %d at distance %d beyond curtailment %d",
								c.g, lane, fid, v, f.part.Dist[v], f.curtail)
						case i > 0 && ix.members[from+int32(i)-1] >= v:
							t.Fatalf("%s %s %d: group %d not ascending", c.g, lane, fid, g)
						}
						seen[v] = true
					}
					from = gr.end
				}
			}
			for v := 0; v < n; v++ {
				if !seen[v] && f.part.Dist[v] <= f.curtail {
					t.Fatalf("%s %s %d: node %d within curtailment is missing", c.g, lane, fid, v)
				}
			}
		}
		for fid := range c.mains {
			check("main", fid, &c.mains[fid], &s.mainIdx[fid], func(v int) int { return int(s.ci[v]) }, len(s.mainClk))
		}
		for fid := range c.bgs {
			check("bg", fid, &c.bgs[fid], &s.bgIdx[fid], func(int) int { return 0 }, 1)
		}
	}
}

// The folded ladder (fine.lvl), which both Act paths read, must equal the
// clustering's schedule ladder within the curtailment and 0 beyond it.
func TestLadderFoldMatchesSchedule(t *testing.T) {
	for _, c := range indexTestInstances(t) {
		for _, fs := range [][]fine{c.mains, c.bgs} {
			for i := range fs {
				f := &fs[i]
				sch := schedule.Build(c.g, f.part)
				if f.maxLevel != sch.MaxLevel {
					t.Fatalf("%s clustering %d: maxLevel %d, schedule %d", c.g, i, f.maxLevel, sch.MaxLevel)
				}
				for v, l := range sch.Levels {
					want := uint8(l)
					if f.part.Dist[v] > f.curtail {
						want = 0
					}
					if f.lvl[v] != want {
						t.Fatalf("%s clustering %d node %d: lvl %d, want %d", c.g, i, v, f.lvl[v], want)
					}
				}
			}
		}
	}
}

// fastmod must agree with % for every ladder length the kernel can meet
// and offsets across the 32-bit range.
func TestFastmodMatchesModulo(t *testing.T) {
	r := rng.New(1)
	for d := uint32(1); d <= 32; d++ {
		m := ^uint64(0)/uint64(d) + 1
		check := func(a uint32) {
			if got, want := fastmod(a, m, uint8(d)), a%d; got != want {
				t.Fatalf("fastmod(%d, %d) = %d, want %d", a, d, got, want)
			}
		}
		for a := uint32(0); a < 1000; a++ {
			check(a)
			check(^a)
			check(uint32(r.Uint64()))
		}
	}
}
