// Command bench runs the pinned performance-trajectory grids and emits
// schema-versioned BENCH_<grid>.json files (see internal/bench). The
// committed files at the repo root form the simulator's throughput
// history; regenerate them when hot-path work lands.
//
// Examples:
//
//	bench                          # run every grid, write BENCH_*.json in .
//	bench -grid decay -workers 4
//	bench -grid huge -shards 4 -append   # keep the old measurement as history
//	bench -quick -out /tmp/bench   # seconds-scale CI smoke variant
//	bench -validate BENCH_decay.json BENCH_compete.json
//	bench -list
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"radionet/internal/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		grid     = flag.String("grid", "all", "comma-separated grid names, or all")
		quick    = flag.Bool("quick", false, "run the seconds-scale CI variant instead of the pinned full scale")
		out      = flag.String("out", ".", "output directory for BENCH_<grid>.json files")
		workers  = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		shards   = flag.Int("shards", 0, "intra-round engine shards per trial (0 = auto-split spare cores on large graphs, 1 = off)")
		appendH  = flag.Bool("append", false, "append to the trajectory: fold an existing BENCH_<grid>.json's measurement into the new file's history instead of discarding it")
		validate = flag.Bool("validate", false, "validate the bench files given as arguments and exit")
		list     = flag.Bool("list", false, "list the pinned grids and exit")
	)
	flag.Parse()

	if *list {
		for _, g := range bench.Grids() {
			tag := ""
			if g.OptIn {
				tag = " (opt-in: excluded from -grid all)"
			}
			fmt.Printf("%-10s %s%s\n", g.Name, g.Summary, tag)
		}
		return nil
	}
	if *validate {
		if flag.NArg() == 0 {
			return fmt.Errorf("-validate needs file arguments")
		}
		for _, path := range flag.Args() {
			f, err := bench.ParseFile(path)
			if err != nil {
				return err
			}
			fmt.Printf("%s: ok (grid %s, schema %d, %d entries)\n", path, f.Grid, f.SchemaVersion, len(f.Entries))
		}
		return nil
	}

	var grids []bench.Grid
	if *grid == "all" {
		// Opt-in grids (the minutes-scale "huge" stress grid) only run
		// when named explicitly.
		for _, g := range bench.Grids() {
			if !g.OptIn {
				grids = append(grids, g)
			}
		}
	} else {
		for _, name := range strings.Split(*grid, ",") {
			name = strings.TrimSpace(name)
			g, ok := bench.LookupGrid(name)
			if !ok {
				known := make([]string, 0, len(bench.Grids()))
				for _, k := range bench.Grids() {
					known = append(known, k.Name)
				}
				return fmt.Errorf("unknown grid %q (known: %s)", name, strings.Join(known, " "))
			}
			grids = append(grids, g)
		}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	for _, g := range grids {
		start := time.Now()
		f, err := bench.Run(g, *quick, *workers, *shards)
		if err != nil {
			return err
		}
		f.Generated = time.Now().UTC().Format(time.RFC3339)
		path := filepath.Join(*out, "BENCH_"+g.Name+".json")
		if *appendH {
			prev, err := bench.ParseFile(path)
			switch {
			case err == nil:
				f.AppendHistory(prev)
			case !errors.Is(err, fs.ErrNotExist):
				// A malformed existing file must not be silently overwritten:
				// its trajectory would be lost. A missing file starts one.
				return err
			}
		}
		if err := f.WriteFile(path); err != nil {
			return err
		}
		fmt.Printf("%s: %d entries, %.1fs wall, %.0f rounds/s\n",
			path, len(f.Entries), time.Since(start).Seconds(), f.RoundsPerSec)
	}
	return nil
}
