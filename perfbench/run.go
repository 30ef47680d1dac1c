package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"

	"radionet/internal/obs"
)

type options struct {
	w       workload
	seed    uint64
	seconds time.Duration
	trace   bool
	want    string // recorded digest of the first batch at defaultSeed
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line. Attempted counts measured
// trials; Failed counts those that did not finish, failed Verify, or (in a
// traced run) were not reproduced by the traced replay.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Detail    map[string]any    `json:"-"`
}

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// run measures o.w for o.seconds: untraced batches for end-to-end
// metrics, or, traced, untraced batches for the first half of the time
// and a traced replay of the same trials after them.
func run(o options) (*result, error) {
	res := &result{Metrics: map[string]metric{}, Detail: map[string]any{
		"workload": o.w.name, "seed": o.seed, "topology": o.w.topo, "clients": o.w.clients,
	}}
	window := o.seconds
	if o.trace {
		window /= 2
	}

	// Output check 1: the first batch at defaultSeed matches its recorded
	// digest. It runs before timing starts, so it also warms the process
	// up: heap, page tables and code are in place when measuring begins.
	ref, err := runBatch(o.w, batchSeed(defaultSeed, 0), nil)
	if err != nil {
		return nil, err
	}
	got := digest(ref.summaries)
	digestOK := o.want != "" && got == o.want
	res.Detail["digest"] = got
	res.Detail["digest_ok"] = digestOK

	var batches []batch
	var peaksMB []float64
	steal0, total0 := cpuTicks()
	start := time.Now()
	for b := 0; b == 0 || time.Since(start) < window; b++ {
		var reg *obs.Registry // the campaign's worker busy counters, traced runs only
		if o.trace {
			reg = obs.NewRegistry()
		}
		// Every batch starts from a collected heap and a reset peak-RSS
		// mark. The run's peak RSS is the median of the batches' peaks: the
		// process-lifetime peak is one extreme of GC timing and spread
		// about a quarter between runs.
		runtime.GC()
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		bt, err := runBatch(o.w, batchSeed(o.seed, b), reg)
		if err != nil {
			return nil, err
		}
		peak, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		batches = append(batches, bt)
		peaksMB = append(peaksMB, peak)
	}
	steal1, total1 := cpuTicks()
	if total1 > total0 {
		res.Detail["steal_share"] = float64(steal1-steal0) / float64(total1-total0)
	}

	// Output check 2: every trial finished (and verified, for elections).
	var walls, throughput, setups []float64
	var rounds int64
	for _, bt := range batches {
		setups = append(setups, bt.setup.Seconds())
		var br int64
		for _, t := range bt.trials {
			res.Attempted++
			if !t.ok {
				res.Failed++
			}
			walls = append(walls, t.wall.Seconds())
			br += t.rounds
		}
		rounds += br
		throughput = append(throughput, float64(br)/bt.wall.Seconds())
	}
	res.Detail["batches"] = len(batches)
	res.Detail["trials"] = res.Attempted

	traceOK := true
	if o.trace {
		// Output check 3: the traced replay reproduces every trial.
		mismatched, err := layerMetrics(o.w, batches, res)
		if err != nil {
			return nil, err
		}
		res.Failed += mismatched
		traceOK = mismatched == 0
		res.Detail["trace_match"] = traceOK
	} else {
		// The sample count is stated because the percentile is fixed.
		beyond := int(float64(len(walls)) * (100 - o.w.tailPct) / 100)
		res.set("setup_s", median(setups), "s")
		res.set("rounds_per_s", median(throughput), "1/s")
		res.set("trial_s_p50", quantile(walls, 0.5), "s")
		res.set("trial_s_tail", quantile(walls, o.w.tailPct/100), "s")
		res.set("peak_rss_mb", median(peaksMB), "MB")
		res.set("sim_rounds_mean", float64(rounds)/float64(res.Attempted), "rounds")
		res.Detail["trial_s_tail_percentile"] = o.w.tailPct
		res.Detail["trial_s_tail_samples_beyond"] = beyond
	}
	res.Detail["failed_frac"] = float64(res.Failed) / float64(res.Attempted)
	res.Correct = res.Failed == 0 && digestOK && traceOK
	return res, nil
}

// layerMetrics replays batches under tracing, fills the per-layer
// metrics, and returns how many trials the replay did not reproduce.
func layerMetrics(w workload, batches []batch, res *result) (mismatched int, err error) {
	hook := obs.NewEngineCollector(obs.NewRegistry()).Hook()
	var (
		sum                   layerTimes
		untraced, engine      time.Duration
		gen, diam, dense, pre []float64
		shardMax, shardMean   float64
		trials                int
		busy, capacity, idle  time.Duration
		denseRows, edges      int
	)
	for _, bt := range batches {
		tb, err := traceBatch(w, bt, hook)
		if err != nil {
			return 0, err
		}
		gen = append(gen, tb.gen.Seconds())
		diam = append(diam, tb.diameter.Seconds())
		dense = append(dense, tb.dense.Seconds())
		pre = append(pre, tb.pre.Seconds())
		denseRows, edges = tb.denseRows, tb.edges
		for i, lt := range tb.trials {
			u := bt.trials[i]
			if !lt.done || lt.rounds != u.rounds || lt.tx != u.tx {
				mismatched++
			}
			trials++
			untraced += u.wall
			sum.wall += lt.wall
			sum.build += lt.build
			sum.act += lt.act
			sum.recv += lt.recv
			sum.hook += lt.hook
			sum.trace += lt.trace
			engine += lt.step - lt.act - lt.recv - lt.hook - lt.trace
			sum.nodeRounds += lt.nodeRounds
			sum.markEdges += lt.markEdges
			sum.deliveries += lt.deliveries
			sum.collisions += lt.collisions
			if len(lt.shardBusy) > 0 {
				var total, hi int64
				for _, b := range lt.shardBusy {
					total += b
					hi = max(hi, b)
				}
				shardMax += float64(hi)
				shardMean += float64(total) / float64(len(lt.shardBusy))
			}
		}
		for _, b := range bt.busy {
			busy += b
			capacity += bt.wall
			idle += bt.wall - b
		}
	}
	allocs, err := allocsPerRound(w, batches[0])
	if err != nil {
		return 0, err
	}

	n := float64(trials)
	wall := sum.wall.Seconds()
	perTrial := func(d time.Duration) float64 { return d.Seconds() / n }
	share := func(d time.Duration) float64 { return d.Seconds() / wall }
	perNodeRound := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(sum.nodeRounds) }

	res.set("graph.gen_s", median(gen), "s")
	res.set("graph.diameter_s", median(diam), "s")
	res.set("graph.dense_s", median(dense), "s")
	res.set("graph.dense_rows", float64(denseRows), "count")
	res.set("graph.edges", float64(edges), "count")

	// The protocol layer is compete on the cd17 workloads and decay on
	// the Decay-family one; the inactive layer's metrics read 0.
	active, inactive := "compete", "decay"
	if !w.competes() {
		active, inactive = inactive, active
	}
	protocolLayer := func(layer string, scale float64) {
		res.set(layer+".build_s", scale*perTrial(sum.build), "s")
		res.set(layer+".build_share", scale*share(sum.build), "ratio")
		res.set(layer+".act_s", scale*perTrial(sum.act), "s")
		res.set(layer+".act_share", scale*share(sum.act), "ratio")
		res.set(layer+".act_ns_per_node_round", scale*perNodeRound(sum.act), "ns")
		res.set(layer+".recv_s", scale*perTrial(sum.recv), "s")
		res.set(layer+".recv_share", scale*share(sum.recv), "ratio")
	}
	protocolLayer(active, 1)
	protocolLayer(inactive, 0)
	res.set("compete.pre_s", median(pre), "s")

	res.set("radio.engine_s", perTrial(engine), "s")
	res.set("radio.engine_share", share(engine), "ratio")
	res.set("radio.mark_edges", float64(sum.markEdges)/n, "count")
	res.set("radio.ns_per_mark_edge", float64(engine.Nanoseconds())/float64(max(sum.markEdges, 1)), "ns")
	res.set("radio.shard_busy_max_s", shardMax/1e9/n, "s")
	imbalance := 0.0
	if shardMean > 0 {
		imbalance = shardMax / shardMean
	}
	res.set("radio.shard_imbalance", imbalance, "ratio")
	res.set("radio.delivery_ratio", float64(sum.deliveries)/float64(max(sum.deliveries+sum.collisions, 1)), "ratio")
	res.set("radio.allocs_per_round", allocs, "count")

	res.set("obs.hook_s", perTrial(sum.hook), "s")
	res.set("obs.hook_share", share(sum.hook), "ratio")

	res.set("campaign.worker_util", busy.Seconds()/capacity.Seconds(), "ratio")
	res.set("campaign.tail_idle_s", idle.Seconds()/float64(len(batches)), "s")

	res.set("trace.overhead", wall/untraced.Seconds(), "ratio")
	res.set("trace.coverage", share(sum.build+sum.act+sum.recv+engine+sum.hook), "ratio")
	res.set("trace.self_share", share(sum.trace), "ratio")
	return mismatched, nil
}

// resetPeakRSS restarts the kernel's peak-RSS mark (VmHWM) from the
// process's current resident set.
func resetPeakRSS() error { return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// quantile is the q-quantile of xs with linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// fingerprint describes the machine and the code a result came from. The
// source digest stands in for the commit where the tree is not a git
// checkout.
func fingerprint() (map[string]any, error) {
	fp := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				fp["commit"] = s.Value
			}
		}
	}
	src, err := sourceDigest(".")
	if err != nil {
		return nil, err
	}
	fp["source_sha256"] = src
	return fp, nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks returns the machine's stolen and total CPU ticks from
// /proc/stat (zeros where unavailable): time a hypervisor gave this
// machine's CPUs to other guests slows every wall-clock metric.
func cpuTicks() (steal, total uint64) {
	buf, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(buf), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // guest time is already counted in user time
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// sourceDigest hashes the module's Go sources and go.mod under root,
// skipping dot-directories.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, filepath.ToSlash(path)+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
