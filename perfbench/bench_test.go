package main

import (
	"encoding/json"
	"maps"
	"os"
	"runtime"
	"slices"
	"testing"

	"radionet/internal/campaign"
)

// Seconds-scale stand-ins for the benchmark workloads, on the same code
// paths: compete broadcast on a tree, compete leader election on dense
// cliques, and Decay broadcast on a tree large enough (n >= 2^15) for the
// campaign to shard each trial's rounds.
var tinyWorkloads = []workload{
	{name: "tiny-tree", task: campaign.Broadcast, topo: "randtree:600", algos: repeat("cd17", 4), clients: 2, tailPct: 50},
	{name: "tiny-cliques", task: campaign.Leader, topo: "cliquepath:4x70", algos: repeat("cd17", 2), clients: 2, tailPct: 50},
	{name: "tiny-decay", task: campaign.Broadcast, topo: "randtree:33000", algos: []string{"bgi", "truncated-decay"}, clients: 1, tailPct: 50},
}

// runOnce runs w for a single batch at defaultSeed against the digest
// want.
func runOnce(t *testing.T, w workload, trace bool, want string) *result {
	t.Helper()
	runtime.GOMAXPROCS(gomaxprocs)
	res, err := run(options{w: w, seed: defaultSeed, seconds: 1, trace: trace, want: want})
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return res
}

// firstDigest is the digest of w's first batch at defaultSeed.
func firstDigest(t *testing.T, w workload) string {
	t.Helper()
	runtime.GOMAXPROCS(gomaxprocs)
	b, err := runBatch(w, batchSeed(defaultSeed, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	return digest(b.summaries)
}

func TestTracedReplayMatchesCampaign(t *testing.T) {
	for _, w := range tinyWorkloads {
		res := runOnce(t, w, true, firstDigest(t, w))
		if !res.Correct || res.Detail["trace_match"] != true {
			t.Errorf("%s: correct=%v trace_match=%v detail=%v", w.name, res.Correct, res.Detail["trace_match"], res.Detail)
		}
		if cov := res.Metrics["trace.coverage"].Value; cov < 0.9 || cov > 1 {
			t.Errorf("%s: layer shares cover %.3f of the traced trial wall", w.name, cov)
		}
		if w.name == "tiny-decay" && res.Metrics["radio.shard_imbalance"].Value == 0 {
			t.Errorf("%s: the replay did not run sharded", w.name)
		}
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var bench struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &bench); err != nil {
		t.Fatal(err)
	}
	w := tinyWorkloads[0]
	want := firstDigest(t, w)
	for _, c := range []struct {
		trace bool
		decls []decl
	}{{false, bench.EndToEnd}, {true, bench.PerLayer}} {
		declared := map[string]string{}
		for _, d := range c.decls {
			declared[d.Name] = d.Unit
		}
		emitted := map[string]string{}
		for name, m := range runOnce(t, w, c.trace, want).Metrics {
			emitted[name] = m.Unit
		}
		if !maps.Equal(declared, emitted) {
			t.Errorf("trace=%v: BENCHMARK.json declares %v, the benchmark emits %v",
				c.trace, slices.Sorted(maps.Keys(declared)), slices.Sorted(maps.Keys(emitted)))
		}
	}
}

func TestOutputCheckRejectsTamperedDigest(t *testing.T) {
	w := tinyWorkloads[0]
	good := firstDigest(t, w)
	tampered := []byte(good)
	tampered[0] ^= 1
	if res := runOnce(t, w, false, good); !res.Correct {
		t.Errorf("correct digest rejected: %v", res.Detail)
	}
	if res := runOnce(t, w, false, string(tampered)); res.Correct {
		t.Errorf("tampered digest accepted: %v", res.Detail)
	}
}

func TestRecordedDigests(t *testing.T) {
	exp, err := loadExpected("expected.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if got, want := firstDigest(t, w), exp.Workloads[w.name].Digest; got != want {
			t.Errorf("%s: first batch digest %s, expected.json records %q", w.name, got, want)
		}
	}
}
