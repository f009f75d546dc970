// Command abcast-bench prints the paper-reproduction tables E1-E13 (E7
// retired): one experiment per qualitative claim of the paper (abstract
// in PAPER.md; the section numbers are the paper's: logging §4.3,
// recovery and checkpointing §5.1-§5.3, batching §5.4-§5.5, the
// Consensus equivalence §6.1) plus three ablations. The tables show how
// the protocol's options trade against each other on a simulated network;
// they are not performance measurements. Performance numbers of record
// come from `bash bench/run.sh` (see bench/README.md).
//
// Usage:
//
//	abcast-bench                 # run everything at full scale
//	abcast-bench -quick          # small sizes (seconds, CI-friendly)
//	abcast-bench -exp E4,E5      # a subset
//	abcast-bench -md             # markdown tables
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced-size experiments")
	expFlag := flag.String("exp", "", "comma-separated experiment ids (e.g. E1,E4); empty = all")
	md := flag.Bool("md", false, "emit markdown tables")
	flag.Parse()

	scale := experiments.Full
	if *quick {
		scale = experiments.Quick
	}

	if err := run(scale, *expFlag, *md); err != nil {
		fmt.Fprintln(os.Stderr, "abcast-bench:", err)
		os.Exit(1)
	}
}

func run(scale experiments.Scale, expFlag string, md bool) error {
	var results []*experiments.Result
	start := time.Now()
	if expFlag == "" {
		var err error
		results, err = experiments.All(scale)
		if err != nil {
			return err
		}
	} else {
		for _, name := range strings.Split(expFlag, ",") {
			name = strings.TrimSpace(name)
			fn, ok := experiments.ByName(name)
			if !ok {
				return fmt.Errorf("unknown experiment %q", name)
			}
			r, err := fn(scale)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			results = append(results, r)
		}
	}
	for _, r := range results {
		if md {
			fmt.Println(r.Table.Markdown())
		} else {
			r.Table.Print(os.Stdout)
		}
		for _, n := range r.Notes {
			fmt.Printf("  note: %s\n", n)
		}
	}
	fmt.Printf("\ncompleted in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}
