package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"radionet/internal/baseline"
	"radionet/internal/campaign"
	"radionet/internal/compete"
	"radionet/internal/decay"
	"radionet/internal/graph"
	"radionet/internal/obs"
	"radionet/internal/radio"
)

// The traced run replays a batch's trials outside the campaign: it builds
// each protocol through its package constructor, wraps the engine's Bulk,
// BulkRecv and Hook seams with timers, and steps Engine.Step itself. The
// replay must reproduce the campaign's (rounds, tx) for every trial;
// run.go checks that.

// layerTimes are one traced trial's per-layer counters. Per-round times
// accumulate here, not as one span per round.
type layerTimes struct {
	wall, build, act, recv, hook, step, trace time.Duration

	rounds, tx, nodeRounds            int64
	markEdges, deliveries, collisions int64
	shardBusy                         []int64 // ns per shard
	mallocs                           uint64  // during the step loop, when counted
	done                              bool
}

// actTimer times the protocol's Act half (Engine.Bulk).
type actTimer struct {
	inner radio.BulkActor
	lt    *layerTimes
}

func (a *actTimer) ActBulk(t int64, tx []int32, msgs []radio.Message) ([]int32, []radio.Message) {
	t0 := time.Now()
	tx, msgs = a.inner.ActBulk(t, tx, msgs)
	a.lt.act += time.Since(t0)
	return tx, msgs
}

// rangeActTimer is actTimer for protocols that implement
// radio.BulkRangeActor: it forwards ActBulkRange so a sharded engine keeps
// its split Act wave. Shards call it concurrently, each call recording its
// duration in a slot of its own; endRound, called after Step returns,
// charges the round the slowest shard's time, which is the wave's wall.
type rangeActTimer struct {
	actTimer
	ranged radio.BulkRangeActor
	calls  atomic.Int32
	durs   []time.Duration
}

func (a *rangeActTimer) ActBulkRange(t int64, lo, hi int32, tx []int32, msgs []radio.Message) ([]int32, []radio.Message) {
	t0 := time.Now()
	tx, msgs = a.ranged.ActBulkRange(t, lo, hi, tx, msgs)
	a.durs[a.calls.Add(1)-1] = time.Since(t0)
	return tx, msgs
}

func (a *rangeActTimer) endRound() {
	var slowest time.Duration
	for _, d := range a.durs[:a.calls.Swap(0)] {
		slowest = max(slowest, d)
	}
	a.lt.act += slowest
}

// recvTimer times the protocol's delivery half (Engine.BulkRecv).
type recvTimer struct {
	inner radio.BulkReceiver
	lt    *layerTimes
}

func (r *recvTimer) RecvBulk(t int64, listeners, msgIdx []int32, msgs []radio.Message) {
	t0 := time.Now()
	r.inner.RecvBulk(t, listeners, msgIdx, msgs)
	r.lt.recv += time.Since(t0)
}

// instrument wraps e's seams with timers writing to lt, installs hook (the
// campaign's obs round hook) behind a timer, and applies the shard count
// as protocol.BuildParams.ApplyEngine would. The hook wrapper also counts
// marked edges (Σ deg of transmitters) and deliveries; that bookkeeping is
// timed as trace and kept out of the engine's self time. The returned
// function must run after every Step.
func instrument(e *radio.Engine, g *graph.Graph, lt *layerTimes, hook radio.RoundHook, shards int) (endRound func(), err error) {
	if shards > 1 {
		e.SetShards(shards)
		lt.shardBusy = make([]int64, e.Shards())
		e.ShardHook = func(shard int, busy int64) { lt.shardBusy[shard] += busy }
	}
	endRound = func() {}
	switch b := e.Bulk.(type) {
	case nil:
		return nil, fmt.Errorf("engine has no bulk Act path to time")
	case radio.BulkRangeActor:
		r := &rangeActTimer{actTimer: actTimer{inner: b, lt: lt}, ranged: b, durs: make([]time.Duration, e.Shards())}
		e.Bulk, endRound = r, r.endRound
	default:
		e.Bulk = &actTimer{inner: b, lt: lt}
	}
	if e.BulkRecv == nil {
		return nil, fmt.Errorf("engine has no bulk Recv path to time")
	}
	e.BulkRecv = &recvTimer{inner: e.BulkRecv, lt: lt}
	e.Hook = func(round int64, transmitters []int32, deliveries, collisions int) {
		t0 := time.Now()
		hook(round, transmitters, deliveries, collisions)
		t1 := time.Now()
		lt.hook += t1.Sub(t0)
		for _, v := range transmitters {
			lt.markEdges += int64(g.Degree(int(v)))
		}
		lt.deliveries += int64(deliveries)
		lt.collisions += int64(collisions)
		lt.trace += time.Since(t1)
	}
	return endRound, nil
}

// traceTrial runs one trial of algo on (g, d) with the campaign's trial
// seed, mirroring the registered runner: the same constructor, the
// default budget, Done checked before the first round and after each one,
// and Verify on a finished leader election. countAllocs measures heap
// allocations across the step loop.
func traceTrial(w workload, algo string, g *graph.Graph, d int, seed uint64, pre *compete.Pre, shards int, hook radio.RoundHook, countAllocs bool) (layerTimes, error) {
	var lt layerTimes
	start := time.Now()
	sources := w.task.TrialSources()
	var (
		e      *radio.Engine
		done   func() bool
		verify func() error
		budget int64
	)
	switch {
	case w.task == campaign.Leader && algo == "cd17":
		le, err := compete.NewLeaderElectionPre(pre, compete.LeaderConfig{}, seed)
		if err != nil {
			return lt, err
		}
		e, done, verify, budget = le.Engine, le.Done, le.Verify, 8*le.Budget()
	case w.task == campaign.Broadcast && algo == "cd17":
		b, err := compete.NewBroadcastPre(pre, seed, 0, sources[0])
		if err != nil {
			return lt, err
		}
		e, done, budget = b.Engine, b.Done, 8*b.Budget()
	case w.task == campaign.Broadcast && algo == "bgi":
		b := decay.NewBroadcast(g, decay.Config{}, seed, sources)
		e, done, budget = b.Engine, b.Done, decay.WhpBudget(g.N(), d)
	case w.task == campaign.Broadcast && algo == "truncated-decay":
		b := baseline.NewTruncatedDecay(g, d, seed, sources)
		e, done, budget = b.Engine, b.Done, decay.WhpBudget(g.N(), d)
	default:
		return lt, fmt.Errorf("no traced constructor for %s:%s", w.task, algo)
	}
	defer e.Close()
	endRound, err := instrument(e, g, &lt, hook, shards)
	if err != nil {
		return lt, err
	}
	lt.build = time.Since(start)

	var ms runtime.MemStats
	if countAllocs {
		runtime.ReadMemStats(&ms)
		lt.mallocs = ms.Mallocs
	}
	for !done() && lt.rounds < budget {
		t0 := time.Now()
		e.Step()
		lt.step += time.Since(t0)
		lt.rounds++
		endRound()
	}
	if countAllocs {
		runtime.ReadMemStats(&ms)
		lt.mallocs = ms.Mallocs - lt.mallocs
	}
	lt.done = done() && (verify == nil || verify() == nil)
	lt.wall = time.Since(start)
	lt.tx = e.Metrics.Transmissions
	lt.nodeRounds = lt.rounds * int64(g.N())
	return lt, nil
}

// tracedBatch is one batch replayed under tracing.
type tracedBatch struct {
	gen, diameter, dense, pre time.Duration
	denseRows, edges          int
	trials                    []layerTimes
}

// traceBatch rebuilds batch b's topology with the graph layer timed, then
// replays its trials on w.clients goroutines through the campaign's own
// worker pool, with the intra-round shard count the campaign resolved.
func traceBatch(w workload, b batch, hook radio.RoundHook) (tracedBatch, error) {
	var tb tracedBatch
	plan, err := w.matrix(b.seed).Expand()
	if err != nil {
		return tb, err
	}
	cfg := plan.Configs[0]
	topo, err := campaign.ParseTopology(w.topo)
	if err != nil {
		return tb, err
	}
	t0 := time.Now()
	g := topo.Build(cfg.Key.Seed)
	tb.gen = time.Since(t0)
	t0 = time.Now()
	d := g.DiameterEstimate()
	tb.diameter = time.Since(t0)
	t0 = time.Now()
	tb.denseRows = g.DenseAdj().Rows()
	tb.dense = time.Since(t0)
	tb.edges = g.M()
	if g.N() != cfg.G.N() || g.M() != cfg.G.M() || d != cfg.D {
		return tb, fmt.Errorf("rebuilt topology (n=%d m=%d D=%d) differs from the campaign's (n=%d m=%d D=%d)",
			g.N(), g.M(), d, cfg.G.N(), cfg.G.M(), cfg.D)
	}
	var pre *compete.Pre
	if w.competes() {
		t0 = time.Now()
		pre = compete.NewPre(g, d, compete.Config{})
		tb.pre = time.Since(t0)
	}
	tb.trials = make([]layerTimes, len(plan.Trials))
	errs := make([]error, len(plan.Trials))
	campaign.ForEachWorker(w.clients, len(plan.Trials), func(_, i int) {
		tr := plan.Trials[i]
		tb.trials[i], errs[i] = traceTrial(w, plan.Configs[tr.Cfg].Spec.Algo, g, d, tr.Seed, pre, b.shards, hook, false)
	})
	for _, err := range errs {
		if err != nil {
			return tb, err
		}
	}
	return tb, nil
}

// allocsPerRound replays the first trial of b alone and returns its heap
// allocations per executed round.
func allocsPerRound(w workload, b batch) (float64, error) {
	plan, err := w.matrix(b.seed).Expand()
	if err != nil {
		return 0, err
	}
	cfg := plan.Configs[0]
	var pre *compete.Pre
	if w.competes() {
		pre = compete.NewPre(cfg.G, cfg.D, compete.Config{})
	}
	hook := obs.NewEngineCollector(obs.NewRegistry()).Hook()
	lt, err := traceTrial(w, cfg.Spec.Algo, cfg.G, cfg.D, plan.Trials[0].Seed, pre, b.shards, hook, true)
	if err != nil {
		return 0, err
	}
	return float64(lt.mallocs) / float64(max(lt.rounds, 1)), nil
}
