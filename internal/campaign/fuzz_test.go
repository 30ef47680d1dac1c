package campaign

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzParseFaultSpec asserts the fault-spec parser never panics and that
// accepted specs round-trip: reparsing the canonical Spec string yields
// the identical FaultSpec (this is what makes manifests reproducible —
// the spec string in a manifest must mean exactly what the original
// command line meant).
func FuzzParseFaultSpec(f *testing.F) {
	for _, seed := range []string{
		"none",
		"crash:0.2@64",
		"jam:0.1:p0.5",
		"loss:0.25",
		"crash:0.3@0+jam:0.2:p1+loss:0.01",
		"  loss:0.5\t",
		"crash:@",
		"jam:0.5:0.5",
		"loss:nan",
		"crash:0x1p-2@7",
		"bogus",
		"",
		"+",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		fs, err := ParseFaultSpec(s)
		if err != nil {
			return
		}
		again, err := ParseFaultSpec(fs.Spec)
		if err != nil {
			t.Fatalf("canonical spec %q (from %q) does not reparse: %v", fs.Spec, s, err)
		}
		if again != fs {
			t.Fatalf("round trip drifted: %q parsed as %+v, its canonical spec reparsed as %+v", s, fs, again)
		}
	})
}

// FuzzTopologySpec asserts the topology parser never panics and that
// accepted specs round-trip to the same canonical Spec with a usable
// builder. Build is deliberately not called: the parser accepts any
// dimensions that scan, and materializing a fuzzer-chosen graph would
// make memory, not parsing, the failure mode.
func FuzzTopologySpec(f *testing.F) {
	for _, seed := range []string{
		"path:64",
		"cycle:5",
		"star:9",
		"complete:4",
		"randtree:33",
		"grid:4x5",
		"cliquepath:3x4",
		"caterpillar:10x2",
		"tree:2x3",
		"dumbbell:5x3",
		"regular:16x4",
		"hypercube:6",
		"geometric:50:0.3",
		"gnp:40:0.1",
		" path:8 ",
		"grid:4x",
		"path:",
		"path:-1",
		"nosuch:3",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		topo, err := ParseTopology(s)
		if err != nil {
			return
		}
		if topo.Build == nil {
			t.Fatalf("accepted spec %q has no builder", s)
		}
		again, err := ParseTopology(topo.Spec)
		if err != nil {
			t.Fatalf("canonical spec %q (from %q) does not reparse: %v", topo.Spec, s, err)
		}
		if again.Spec != topo.Spec {
			t.Fatalf("canonical spec drifted: %q -> %q -> %q", s, topo.Spec, again.Spec)
		}
	})
}

// maxFuzzTrials bounds the expansion FuzzLoadMatrix attempts: expand
// allocates one Trial per (config, seed), so a fuzzer-chosen seed count
// would make memory, not validation, the failure mode.
const maxFuzzTrials = 1 << 16

// FuzzLoadMatrix asserts the JSON matrix loader and the (unmaterialized)
// expansion never panic, and that a loaded matrix round-trips: it
// re-marshals to JSON that loads back to an equal matrix. Graphs are
// never built — only specs are parsed and algorithms resolved.
func FuzzLoadMatrix(f *testing.F) {
	for _, seed := range []string{
		`{"topologies":["grid:4x8","path:16"],"algorithms":[{"task":"broadcast","algo":"cd17"}],"seeds":4,"master_seed":99}`,
		`{"topologies":["grid:6x6"],"algorithms":[{"task":"leader","algo":"cd17"},{"task":"leader","algo":"max-broadcast"}],"faults":["none","crash:0.3@20"],"seeds":3,"master_seed":1,"max_rounds":500}`,
		`{"topologies":["path:8"],"algorithms":[{"task":"leader","algo":"gh13"}],"faults":["loss:0.1"],"seeds":1}`,
		`{"topologies":[],"algorithms":null,"faults":[],"seeds":0}`,
		transportsMatrixJSON,
		`{"unknown_field": 1}`,
		`{"seeds": -1, "master_seed": 18446744073709551615}`,
		`[]`,
		`{`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadMatrix(bytes.NewReader(data))
		if err != nil {
			return
		}
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("loaded matrix does not marshal: %v", err)
		}
		again, err := LoadMatrix(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("re-marshaled matrix %s does not reload: %v", b, err)
		}
		// omitempty drops an empty faults list, which reloads as nil; the
		// two mean the same (no fault axis).
		if len(m.Faults) == 0 {
			m.Faults = nil
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("round trip drifted: %+v reloaded as %+v", m, again)
		}
		cells := int64(len(m.Topologies)) * int64(len(m.Algorithms)) * int64(max(len(m.Faults), 1))
		if m.Seeds > 0 && cells > 0 && int64(m.Seeds) > maxFuzzTrials/cells {
			return
		}
		m.expand()
	})
}
