package campaign

import (
	"bytes"
	"strings"
	"testing"

	"radionet/internal/obs"
)

// TestTelemetryOutputNeutral is the observability acceptance criterion:
// attaching the full telemetry surface — metrics registry (with its
// per-product build timers), run stats and the progress stream — must
// leave every sink byte-identical to a bare run, at any worker count. Telemetry observes the campaign; it never participates
// in it.
func TestTelemetryOutputNeutral(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full protocol trials")
	}
	m := testMatrix(3)
	bare := runToBuffers(t, Campaign{Matrix: m, Workers: 1})
	for _, workers := range []int{1, 4} {
		var progress bytes.Buffer
		var st RunStats
		c := Campaign{
			Matrix:   m,
			Workers:  workers,
			Obs:      obs.NewRegistry(),
			Progress: &progress,
			Stats:    &st,
		}
		full := runToBuffers(t, c)
		for _, f := range []string{"text", "csv", "jsonl"} {
			if bare[f] != full[f] {
				t.Errorf("workers=%d: %s sink differs with telemetry attached:\n-- bare --\n%s\n-- telemetry --\n%s",
					workers, f, bare[f], full[f])
			}
			// The progress stream must never leak into a sink, and vice
			// versa: sink bytes carry no carriage-return rewrites.
			if strings.Contains(full[f], "\r") {
				t.Errorf("workers=%d: %s sink contains progress control bytes", workers, f)
			}
		}
		if progress.Len() == 0 {
			t.Errorf("workers=%d: progress writer got no output", workers)
		}
		if !strings.Contains(progress.String(), "trials") {
			t.Errorf("workers=%d: progress output unrecognizable: %q", workers, progress.String())
		}
	}
}

// TestCampaignTelemetryContent checks that the registry and RunStats a
// campaign fills are self-consistent with what the sinks reported.
func TestCampaignTelemetryContent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full protocol trials")
	}
	m := testMatrix(2)
	plan, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var st RunStats
	c := Campaign{Matrix: m, Workers: 2, Obs: obs.NewRegistry(), Stats: &st}
	summaries, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}

	snap := c.Obs.Snapshot()
	trials := int64(len(plan.Trials))
	if got := snap.Counters[obs.TrialsCompleted]; got != trials {
		t.Errorf("trials.completed = %d, want %d", got, trials)
	}
	if snap.Counters[obs.EngineRounds] <= 0 {
		t.Error("engine.rounds not collected")
	}
	if snap.Counters[obs.EngineTx] <= 0 {
		t.Error("engine.transmissions not collected")
	}
	h, ok := snap.Histograms[obs.TrialRounds]
	if !ok || h.Count != trials {
		t.Fatalf("trial.rounds histogram count = %+v, want %d samples", h, trials)
	}
	// Budget-fraction telemetry: every algorithm in the test matrix
	// reports a default budget, so each trial lands one permille sample.
	bh, ok := snap.Histograms[obs.TrialBudgetPermille]
	if !ok || bh.Count != trials {
		t.Fatalf("trial.budget_used_permille count = %+v, want %d samples", bh, trials)
	}
	// Worker slots 0 and 1 both exist and account for every trial.
	var workerTrials int64
	for _, w := range []string{"worker.00.trials", "worker.01.trials"} {
		workerTrials += snap.Counters[w]
	}
	if workerTrials != trials {
		t.Errorf("worker trial counters sum to %d, want %d", workerTrials, trials)
	}

	if st.Workers != 2 || st.Wall <= 0 {
		t.Errorf("run stats header: %+v", st)
	}
	if len(st.Configs) != len(summaries) {
		t.Fatalf("stats configs = %d, want %d", len(st.Configs), len(summaries))
	}
	for i, cs := range st.Configs {
		s := summaries[i]
		if cs.Trials != s.Trials || cs.Failures != s.Failures || cs.RoundsMean != s.Rounds.Mean {
			t.Errorf("config %d stats diverge from summary: %+v vs %+v", i, cs, s)
		}
		if cs.Name == "" || cs.Wall <= 0 {
			t.Errorf("config %d stats incomplete: %+v", i, cs)
		}
	}
}
