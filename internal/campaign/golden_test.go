package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenSinks pins absolute sink bytes: each matrix below is one a CI
// `cmp` smoke step runs through cmd/campaign, and its JSONL must equal the
// committed file byte for byte. A file is the stdout of
// `go run ./cmd/campaign <flags> -format jsonl` with the flags noted at
// its case; regenerate it only when a change is meant to alter results.
func TestGoldenSinks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full protocol trials")
	}
	faults, err := Preset("faults")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		m    Matrix
	}{
		// -topos grid:8x8,path:64,cliquepath:8x4 -algos cd17,bgi -seeds 5
		{"determinism", Matrix{
			Topologies: []string{"grid:8x8", "path:64", "cliquepath:8x4"},
			Algorithms: []AlgoSpec{{Broadcast, "cd17"}, {Broadcast, "bgi"}},
			Seeds:      5,
			MasterSeed: 1,
		}},
		// -preset faults
		{"faults", faults},
		// -topos grid:6x6 -task leader -algos cd17,max-broadcast
		// -faults none,crash:0.3@20 -seeds 3
		{"leader-faults", Matrix{
			Topologies: []string{"grid:6x6"},
			Algorithms: []AlgoSpec{{Leader, "cd17"}, {Leader, "max-broadcast"}},
			Faults:     []string{"none", "crash:0.3@20"},
			Seeds:      3,
			MasterSeed: 1,
		}},
		// -topos grid:8x8 -algos cd17,bgi -faults crash:0.3@50 -seeds 3
		{"crash-grid", Matrix{
			Topologies: []string{"grid:8x8"},
			Algorithms: []AlgoSpec{{Broadcast, "cd17"}, {Broadcast, "bgi"}},
			Faults:     []string{"crash:0.3@50"},
			Seeds:      3,
			MasterSeed: 1,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			sink, err := NewSink("jsonl", &buf, tc.m.SinkSchema(false))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := (&Campaign{Matrix: tc.m, Workers: 2}).Run(sink); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", tc.name+".jsonl")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s sink differs from %s:\n-- got --\n%s\n-- want --\n%s", tc.name, path, buf.Bytes(), want)
			}
		})
	}
}
