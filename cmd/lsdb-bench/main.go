// Command lsdb-bench regenerates the experiment tables of
// EXPERIMENTS.md (DESIGN.md §3) from the experiment registry in
// internal/bench. Each experiment quantifies one of the paper's
// qualitative claims on a synthetic world.
//
// Usage:
//
//	lsdb-bench                    # run every experiment
//	lsdb-bench E1 E5 E8           # run a subset
//	lsdb-bench -quick             # the quick parameter points only
//	lsdb-bench -json BENCH.json   # also write every record as JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	quick := flag.Bool("quick", false, "run only the quick parameter points")
	jsonPath := flag.String("json", "", "also write the measured records to this file")
	scaleMax := flag.Int("scalemax", 1_000_000, "largest world size (facts) to run")
	flag.Parse()

	selected := flag.Args()
	if len(selected) == 0 {
		selected = bench.Names()
	}
	var exps []*bench.Experiment
	for _, name := range selected {
		e := bench.Lookup(name)
		if e == nil {
			fmt.Fprintf(os.Stderr, "lsdb-bench: unknown experiment %q (have %v)\n", name, bench.Names())
			os.Exit(2)
		}
		exps = append(exps, e)
	}

	var all []bench.Result
	for _, e := range exps {
		rs, err := e.Run(e.Selected(*quick, *scaleMax), 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lsdb-bench:", err)
			os.Exit(1)
		}
		fmt.Println(e.Render(rs))
		all = append(all, rs...)
	}

	if *jsonPath != "" {
		buf, err := json.MarshalIndent(bench.NewReport(all), "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "lsdb-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
}
