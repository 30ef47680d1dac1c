package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzParseBench asserts the bench-file parser never panics and that an
// accepted file round-trips: it re-marshals to JSON that parses back to
// an equal File. The corpus holds one file of each schema version (only
// version 5 parses; the older ones exercise rejection) and the committed
// BENCH_*.json files.
func FuzzParseBench(f *testing.F) {
	entry := `{"name":"randtree:2000/broadcast:bgi","n":2000,"d":20,"trials":2,"rounds_mean":100,"wall_ms_total":1,"wall_ms_mean":0.5}`
	hist := `{"go":"go1.x","gomaxprocs":1,"workers":1,"shards":1,"config_hash":"h","wall_ms":2,"rounds_per_sec":5}`
	for _, seed := range []string{
		`{"schema_version":1,"grid":"decay","go":"go1.x","gomaxprocs":1,"workers":1,"config_hash":"h","wall_ms":1,"rounds_per_sec":10,"entries":[` + entry + `]}`,
		`{"schema_version":2,"grid":"decay","go":"go1.x","gomaxprocs":1,"workers":1,"shards":4,"config_hash":"h","wall_ms":1,"rounds_per_sec":10,"entries":[` + entry + `]}`,
		`{"schema_version":3,"grid":"decay","go":"go1.x","gomaxprocs":4,"workers":4,"shards":4,"config_hash":"h","wall_ms":1,"rounds_per_sec":10,"entries":[` + entry + `],"history":[` + hist + `]}`,
		`{"schema_version":4,"grid":"decay","go":"go1.x","gomaxprocs":4,"workers":4,"shards":4,"config_hash":"h","wall_ms":1,"rounds_per_sec":10,"setup_ms":7,"cache":"warm","entries":[` + entry + `],"history":[]}`,
		`{"schema_version":1,"grid":"g","bogus":true,"entries":[]}`,
		`{"schema_version":6,"grid":"g","entries":[` + entry + `]}`,
		`{"schema_version":"4"}`,
		`[]`,
		`{`,
		``,
		`{"schema_version":5,"grid":"decay","go":"go1.x","gomaxprocs":4,"workers":4,"shards":4,"config_hash":"h","wall_ms":1,"rounds_per_sec":10,"setup_ms":7,"entries":[` + entry + `],"history":[` + hist + `]}`,
	} {
		f.Add([]byte(seed))
	}
	committed, _ := filepath.Glob("../../BENCH_*.json")
	for _, path := range committed {
		if b, err := os.ReadFile(path); err == nil {
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := Parse(data)
		if err != nil {
			return
		}
		b, err := json.Marshal(file)
		if err != nil {
			t.Fatalf("parsed file does not marshal: %v", err)
		}
		again, err := Parse(b)
		if err != nil {
			t.Fatalf("re-marshaled file %s does not parse: %v", b, err)
		}
		// omitempty drops an empty history, which parses back as nil; the
		// two mean the same (no prior runs).
		if len(file.History) == 0 {
			file.History = nil
		}
		if !reflect.DeepEqual(again, file) {
			t.Fatalf("round trip drifted: %+v parsed back as %+v", file, again)
		}
	})
}
