// Command perfbench is radionet's benchmark. It drives one workload — a
// closed loop of campaign batches through campaign.Campaign.Run — for a
// fixed number of seconds, checks the outputs, and prints one JSON result
// line: the end-to-end metrics, or with -trace 1 the per-layer metrics of
// a traced replay of the same trials. Run it from the repository root:
//
//	python3 perfbench/run.py --workload cd17-bcast-tree --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// gomaxprocs pins the scheduler to the two cores the workloads were sized
// for, so figures from machines with more cores stay comparable.
const gomaxprocs = 2

func main() {
	name := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Uint64("seed", defaultSeed, "input seed")
	seconds := flag.Float64("seconds", 40, "measurement time")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	expected := flag.String("expected", "perfbench/expected.json", "recorded output digests")
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *trace, *expected); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed uint64, seconds float64, trace int, expectedPath string) error {
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	if !(seconds > 0) { // also rejects NaN
		return fmt.Errorf("-seconds must be positive, got %v", seconds)
	}
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	exp, err := loadExpected(expectedPath)
	if err != nil {
		return err
	}
	runtime.GOMAXPROCS(gomaxprocs)
	res, err := run(options{
		w:       w,
		seed:    seed,
		seconds: time.Duration(seconds * float64(time.Second)),
		trace:   trace == 1,
		want:    exp.Workloads[w.name].Digest,
	})
	if err != nil {
		return err
	}
	fp, err := fingerprint()
	if err != nil {
		return err
	}
	for _, line := range []any{
		map[string]any{"fingerprint": fp},
		map[string]any{"detail": res.Detail},
		res,
	} {
		buf, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Println(string(buf))
	}
	return nil
}

// expected is expected.json: the recorded digest of each workload's first
// batch at defaultSeed, plus documentation the program does not read.
type expected struct {
	DefaultSeed uint64 `json:"default_seed"`
	Workloads   map[string]struct {
		Digest string `json:"digest"`
	} `json:"workloads"`
}

// defaultSeed is the seed whose first batch has a recorded digest.
const defaultSeed = 1

func loadExpected(path string) (expected, error) {
	var e expected
	buf, err := os.ReadFile(path)
	if err != nil {
		return e, err
	}
	if err := json.Unmarshal(buf, &e); err != nil {
		return e, fmt.Errorf("%s: %w", path, err)
	}
	if e.DefaultSeed != defaultSeed {
		return e, fmt.Errorf("%s: default_seed %d, the program checks seed %d", path, e.DefaultSeed, defaultSeed)
	}
	return e, nil
}
