// Command benchfig regenerates the figures of the paper's evaluation
// section (§5). Each figure is printed as an aligned text table (or CSV)
// with one row per x-axis point and one column per plotted series.
//
// Usage:
//
//	benchfig -fig all                 # every figure, paper-scale workload
//	benchfig -fig 4.21b               # one figure
//	benchfig -fig ablations -quick    # ablation tables, scaled down
//	benchfig -fig 4.23b -csv          # CSV output
//
// Figures: 4.20a 4.20b 4.21a 4.21b 4.22a 4.22b 4.23a 4.23b, plus
// "ablations" (ablation-order, ablation-refine, ablation-radius and
// ablation-adjacency: search-order planner, refinement level, profile
// radius and candidate iteration studies).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"gqldb/internal/figures"
	"gqldb/internal/stats"
)

func main() {
	fig := flag.String("fig", "all", "figure id (4.20a..4.23b), 'ablations', or 'all'")
	quick := flag.Bool("quick", false, "scaled-down workload (fast smoke run)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	outDir := flag.String("out", "", "also write one CSV file per figure into this directory")
	quiet := flag.Bool("quiet", false, "suppress progress output")
	flag.Parse()

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "benchfig: %v\n", err)
			os.Exit(1)
		}
	}

	cfg := figures.Default()
	if *quick {
		cfg = figures.Quick()
	}
	if !*quiet {
		cfg.Progress = os.Stderr
	}
	r := figures.NewRunner(cfg)

	type figFn struct {
		id string
		fn func() (*stats.Table, error)
	}
	all := []figFn{
		{"4.20a", func() (*stats.Table, error) { return r.Fig420(stats.BucketLow) }},
		{"4.20b", func() (*stats.Table, error) { return r.Fig420(stats.BucketHigh) }},
		{"4.21a", r.Fig421a},
		{"4.21b", r.Fig421b},
		{"4.22a", r.Fig422a},
		{"4.22b", r.Fig422b},
		{"4.23a", r.Fig423a},
		{"4.23b", r.Fig423b},
		{"ablation-order", r.AblationOrder},
		{"ablation-refine", r.AblationRefineLevel},
		{"ablation-radius", r.AblationRadius},
		{"ablation-adjacency", r.AblationAdjacency},
	}

	want := strings.ToLower(*fig)
	ran := 0
	for _, f := range all {
		switch want {
		case "all":
		case "ablations":
			if !strings.HasPrefix(f.id, "ablation") {
				continue
			}
		default:
			if f.id != want {
				continue
			}
		}
		t, err := f.fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchfig: %s: %v\n", f.id, err)
			os.Exit(1)
		}
		if *csv {
			fmt.Printf("# %s\n%s\n", t.Title, t.CSV())
		} else {
			fmt.Println(t.Format())
		}
		if *outDir != "" {
			name := filepath.Join(*outDir, "fig"+strings.ReplaceAll(f.id, ".", "_")+".csv")
			if err := os.WriteFile(name, []byte("# "+t.Title+"\n"+t.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "benchfig: %v\n", err)
				os.Exit(1)
			}
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "benchfig: unknown figure %q (try -fig all)\n", *fig)
		os.Exit(2)
	}
}
