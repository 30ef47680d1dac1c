package exp

import (
	"radionet/internal/graph"
	"radionet/internal/stats"
)

func init() {
	register("F7", "Energy: total transmissions per broadcast", runF7)
}

// runF7 compares the transmission (energy) cost of the algorithms — not a
// claim the paper optimizes for, but a first-class concern in the radio
// network literature and a consequence of its design: spontaneous
// transmissions mean nodes spend energy before being informed, so the
// paper's speed is bought with channel activity. The table quantifies the
// trade.
func runF7(o Options) *Table {
	t := &Table{
		ID:         "F7",
		Title:      Title("F7"),
		PaperClaim: "no explicit claim; quantifies the energy cost of spontaneous transmissions vs informed-only protocols",
		Columns:    []string{"graph", "n", "D", "algo", "rounds", "transmissions", "tx/node/round"},
	}
	seeds := o.seeds(3)
	gs := []*graph.Graph{graph.Grid(16, 64), graph.PathOfCliques(32, 8)}
	if o.Quick {
		gs = []*graph.Graph{graph.Grid(8, 16)}
		if seeds > 2 {
			seeds = 2
		}
	}
	algos := []broadcastAlgo{namedAlgo("bgi"), namedAlgo("truncated-decay"), namedAlgo("cd17")}
	for _, g := range gs {
		d := g.DiameterEstimate()
		for _, a := range algos {
			runs := runSeeds(o, a, g, d, o.Seed+9, seeds)
			rounds, tx := stats.Mean(runs.rounds), stats.Mean(runs.tx)
			perNodeRound := 0.0
			if rounds > 0 {
				perNodeRound = tx / (rounds * float64(g.N()))
			}
			t.AddRow(g.Name(), g.N(), d, a.name, rounds, tx, perNodeRound)
		}
	}
	t.Note("BGI/CR-KP transmit only after being informed; CD17's clustering lanes keep a low duty cycle per node but spend energy network-wide from round 0")
	return t
}
