package exp

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenExperimentsQuick pins every quick-scale table byte for byte.
// testdata/quick-seeds1.txt is the stdout of
//
//	go run ./cmd/experiments -quick -seeds 1 | grep -v 'completed in'
//
// (each table as Render prints it, followed by one blank line). Regenerate
// it only when a change is meant to alter results.
func TestGoldenExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	var buf bytes.Buffer
	for _, id := range IDs() {
		tbl, err := Run(id, Options{Seed: 1, Quick: true, Seeds: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.Render(&buf); err != nil {
			t.Fatal(err)
		}
		buf.WriteByte('\n')
	}
	path := filepath.Join("testdata", "quick-seeds1.txt")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("tables differ from %s:\n-- got --\n%s\n-- want --\n%s", path, buf.Bytes(), want)
	}
}
