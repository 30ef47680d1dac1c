package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"radionet/internal/campaign"
	"radionet/internal/obs"
)

// workload is one campaign the benchmark drives in a closed loop: each
// batch is a Campaign.Run over one freshly generated topology, with
// clients campaign workers pulling trials until the batch is done.
type workload struct {
	name  string
	task  campaign.Task
	topo  string
	algos []string // one entry per trial of a batch, in trial order
	// clients is the campaign worker count (Campaign.Workers).
	clients int
	// tailPct is the percentile trial_s_tail reports: the highest that
	// leaves at least ten trials beyond it in a run of run_seconds, even
	// when a busy host slows the run by a quarter. It is fixed per
	// workload so that runs stay comparable.
	tailPct float64
}

// The workloads, and why each was chosen, are described in
// BENCHMARK.json; expected.json records their layer predictions. The
// Decay workload runs bgi twice per batch: bgi trials take longer than
// truncated-decay ones, and with equal counts the median trial would fall
// in the gap between the two algorithms' wall times.
//
// Two workloads keep the measured work on one thread, because on a
// shared two-vCPU host work spread over both vCPUs measured the host more
// than the program. The Decay tree stays below the campaign's
// auto-sharding threshold (2^15 nodes). At 40000 nodes, two shards barely
// shortened a trial, every round waited for both vCPUs, and its timings
// spread 0.28-0.38 of the median over ten runs. The leader workload runs
// one client: over interleaved runs its rounds/s varied half as much as
// with two clients. cd17-bcast-tree keeps two clients, so the campaign's
// worker pool and its stragglers are measured there.
var workloads = []workload{
	{name: "cd17-bcast-tree", task: campaign.Broadcast, topo: "randtree:5000", algos: repeat("cd17", 8), clients: 2, tailPct: 95},
	{name: "decay-bcast-tree", task: campaign.Broadcast, topo: "randtree:30000", algos: []string{"bgi", "bgi", "truncated-decay"}, clients: 1, tailPct: 90},
	{name: "cd17-leader-cliques", task: campaign.Leader, topo: "cliquepath:16x80", algos: repeat("cd17", 8), clients: 1, tailPct: 90},
}

func repeat(s string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = s
	}
	return out
}

// competes reports whether w runs the compete pipeline (and so needs its
// seed-independent precomputation, compete.Pre).
func (w workload) competes() bool { return w.algos[0] == "cd17" }

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// batchSeed is the master seed of batch b of a run seeded with seed.
func batchSeed(seed uint64, b int) uint64 { return seed<<20 + uint64(b) }

// matrix is batch masterSeed of w. Every trial is its own configuration
// (Seeds = 1, the algorithm listed once per trial), so the campaign's
// per-configuration summaries carry each trial's rounds, transmissions
// and wall time; all configurations share the one topology product.
func (w workload) matrix(masterSeed uint64) campaign.Matrix {
	m := campaign.Matrix{Topologies: []string{w.topo}, Seeds: 1, MasterSeed: masterSeed}
	for _, a := range w.algos {
		m.Algorithms = append(m.Algorithms, campaign.AlgoSpec{Task: w.task, Algo: a})
	}
	return m
}

// trialOut is one trial as the campaign reported it.
type trialOut struct {
	rounds, tx int64
	wall       time.Duration
	ok         bool // done within budget and, for leader trials, verified
}

// batch is one Campaign.Run.
type batch struct {
	seed      uint64
	trials    []trialOut
	setup     time.Duration // RunStats.Setup
	wall      time.Duration // RunStats.Wall
	shards    int           // RunStats.Shards: intra-round shards per trial
	busy      []time.Duration
	summaries []campaign.ConfigSummary
}

// runBatch runs batch masterSeed of w through Campaign.Run. A non-nil reg
// collects the campaign's worker busy counters.
func runBatch(w workload, masterSeed uint64, reg *obs.Registry) (batch, error) {
	var st campaign.RunStats
	c := campaign.Campaign{Matrix: w.matrix(masterSeed), Workers: w.clients, Timings: true, Obs: reg, Stats: &st}
	sums, err := c.Run()
	if err != nil {
		return batch{}, err
	}
	if len(sums) != len(w.algos) {
		return batch{}, fmt.Errorf("campaign returned %d summaries for %d trials", len(sums), len(w.algos))
	}
	b := batch{seed: masterSeed, setup: st.Setup, wall: st.Wall, shards: st.Shards, summaries: sums}
	for _, s := range sums {
		b.trials = append(b.trials, trialOut{
			rounds: int64(s.Rounds.Mean),
			tx:     int64(s.Tx.Mean),
			wall:   time.Duration(s.WallMS.Mean * 1e6),
			ok:     s.Failures == 0,
		})
	}
	if reg != nil {
		for i := 0; i < st.Workers; i++ {
			us := reg.Counter(fmt.Sprintf("worker.%02d.busy_us", i)).Value()
			b.busy = append(b.busy, time.Duration(us)*time.Microsecond)
		}
	}
	return b, nil
}

// digest is the SHA-256 of the batch's campaign summaries with the
// wall-time fields removed: the deterministic output of the batch.
func digest(sums []campaign.ConfigSummary) string {
	clean := make([]campaign.ConfigSummary, len(sums))
	for i, s := range sums {
		s.WallMS = nil
		clean[i] = s
	}
	buf, err := json.Marshal(clean)
	if err != nil {
		panic(err) // ConfigSummary is plain data; Marshal cannot fail on it
	}
	h := sha256.Sum256(buf)
	return hex.EncodeToString(h[:])
}
