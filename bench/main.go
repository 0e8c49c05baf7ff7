// Command bench is gqldb's benchmark: it builds cmd/gqlserver and
// cmd/gqlshard, generates every input from a seed, drives the live
// binaries over HTTP for the end-to-end metrics, makes a separate
// in-process traced run for the per-layer metrics, and checks every
// answer against an embedded oracle. README.md is the manual.
//
//	go run ./bench -workload ppi_clique -seed 1 -seconds 15 -trace 0
//	go run ./bench -seed 1                 every workload, both runs
//	go run ./bench -quick                  the smoke sizes
//	go run ./bench -sets 2 -check          self-agreement
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload to run ("+strings.Join(workloadNames, ", ")+"); empty runs all four")
	seed := flag.Int64("seed", 1, "the only source of randomness for corpus, programs and schedules")
	seconds := flag.Float64("seconds", 15, "length of the measured window")
	trace := flag.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics; default: 0 with -workload, both otherwise")
	quick := flag.Bool("quick", false, "smoke sizes: tiny corpus, 1 s windows")
	sets := flag.Int("sets", 1, "how many times to run the whole benchmark")
	check := flag.Bool("check", false, "with -sets 2: fail if any end-to-end metric differs between sets by more than its bound")
	flag.Parse()

	code, err := realMain(*workload, *seed, *seconds, *trace, *quick, *sets, *check)
	if err != nil {
		killAll()
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(code)
}

func realMain(workload string, seed int64, seconds float64, trace int, quick bool, sets int, check bool) (int, error) {
	if seconds <= 0 || sets < 1 || flag.NArg() > 0 {
		return 0, fmt.Errorf("bench: bad arguments (seconds %v, sets %d, stray %q)", seconds, sets, flag.Args())
	}
	if check && sets < 2 {
		return 0, fmt.Errorf("bench: -check compares sets; give -sets 2 or more")
	}
	root, err := moduleRoot()
	if err != nil {
		return 0, err
	}
	build := filepath.Join(root, ".bench_build")
	bins, err := buildBinaries(root, filepath.Join(build, "bin"))
	if err != nil {
		return 0, err
	}

	// A signal must not leave servers behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(130)
	}()

	base := config{
		seed:       seed,
		window:     time.Duration(seconds * float64(time.Second)),
		warmup:     warmupFor(seconds),
		coldStarts: 3,
		sz:         fullSizes,
		bins:       bins,
		workBase:   filepath.Join(build, "run"),
		outDir:     filepath.Join(root, "bench", "out"),
	}
	if quick {
		base.sz, base.window, base.warmup = quickSizes, time.Second, 300*time.Millisecond
	}
	fmt.Printf("gqldb bench: nproc %d, %s, commit %s, seed %d, window %v, warm-up %v, %d closed-loop clients\n",
		runtime.NumCPU(), runtime.Version(), commit(root), seed, base.window, base.warmup, clients)

	names := workloadNames
	if workload != "" {
		names = []string{workload}
		if trace < 0 {
			trace = 0
		}
	}
	var all [][]*result
	failed := false
	for s := 0; s < sets; s++ {
		var set []*result
		for _, name := range names {
			cfg := base
			cfg.workload = name
			// Driver mode (-workload with -trace) makes exactly the run
			// asked for; otherwise each workload gets its end-to-end run
			// and then, unless only sets are compared, its traced run.
			var res *result
			if trace != 1 {
				if res, err = runWorkload(cfg); err != nil {
					return 0, err
				}
				report(res)
			}
			if trace == 1 || (trace < 0 && !check) {
				// A traced run spends a third of its time on a short live
				// window (for the /metrics deltas and the socket's share)
				// and the rest in process; see traceWorkload.
				cfg.trace, cfg.coldStarts, cfg.window = true, 1, base.window/3
				tres, err := runWorkload(cfg)
				if err != nil {
					return 0, err
				}
				reportLayers(tres)
				if res == nil {
					res = tres
				} else {
					res.layers = tres.layers
					res.attempted += tres.attempted
					res.failed += tres.failed
				}
			}
			failed = failed || !res.correct()
			set = append(set, res)
		}
		all = append(all, set)
	}
	if check {
		bounds, err := loadBounds(filepath.Join(root, "BENCHMARK.json"))
		if err != nil {
			return 0, err
		}
		if !agree(all, bounds) {
			failed = true
		}
	}
	// The last line of standard output is the machine-readable result: of
	// the one run in driver mode, else of the last set's last workload.
	last := all[len(all)-1][len(names)-1]
	if err := printResultLine(last, trace == 1); err != nil {
		return 0, err
	}
	if failed {
		return 1, nil
	}
	return 0, nil
}

// warmupFor scales the warm-up with the window: long enough for caches to
// fill and lazy builds to finish (the slowest, coll_cached's 64 programs,
// needs about a second), short enough to fit the driver's time cap.
func warmupFor(seconds float64) time.Duration {
	w := time.Duration(seconds * float64(time.Second) / 6)
	if w < time.Second {
		w = time.Second
	}
	if w > 5*time.Second {
		w = 5 * time.Second
	}
	return w
}

// commit names the measured source for the report header. The driver's
// checkout is not a git repository; "unknown" is the honest answer there.
func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func printMetrics(title string, ms []metric) {
	fmt.Println(title)
	for _, m := range ms {
		fmt.Printf("  %-36s %14.4f %-7s %s\n", m.Name, m.Value, m.Unit, m.Note)
	}
}

// report prints a workload's end-to-end metrics by name with their units.
func report(r *result) {
	printMetrics(fmt.Sprintf("workload %s: end to end (tracing off)", r.workload), append(append([]metric(nil), r.e2e...), r.extra...))
	fmt.Printf("  attempted %d, failed %d\n", r.attempted, r.failed)
	for _, e := range r.errs {
		fmt.Printf("  failure: %s\n", e)
	}
}

// reportLayers prints a traced run's per-layer metrics.
func reportLayers(r *result) {
	printMetrics(fmt.Sprintf("workload %s: per layer (traced run, with its short live window's unbounded end-to-end observations)", r.workload),
		append(append([]metric(nil), r.extra...), r.layers...))
	for _, e := range r.errs {
		fmt.Printf("  failure: %s\n", e)
	}
}

// printResultLine writes the driver's result object: the end-to-end
// metrics of an untraced run, or the per-layer metrics of a traced one.
func printResultLine(r *result, traced bool) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := r.e2e
	if traced {
		ms = append(append([]metric(nil), r.extra...), r.layers...)
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]mv{}}
	for _, m := range ms {
		out.Metrics[m.Name] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
