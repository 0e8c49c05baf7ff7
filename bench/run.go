package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"
)

// metric is one reported number.
type metric struct {
	Name  string
	Unit  string
	Value float64
	// Note qualifies the value for the human-readable report (sample
	// counts, a percentile fallback, "n/a" reasons).
	Note string
}

// config is one workload run's parameters.
type config struct {
	workload string
	seed     int64
	// window is the measured window; warmup precedes it.
	window, warmup time.Duration
	// coldStarts is how many times the deployment is started for setup_s.
	coldStarts int
	sz         sizes
	// trace adds the per-layer run.
	trace bool
	bins  binaries
	// workBase holds run directories; outDir receives trace files.
	workBase, outDir string
}

// result is one workload run's outcome.
type result struct {
	workload  string
	attempted int
	failed    int
	errs      []string
	// e2e are the bounded end-to-end metrics of BENCHMARK.json; extra are
	// end-to-end observations that cannot be bounded there (they are zero
	// or undefined on some workload) and are reported with the layers.
	e2e, extra, layers []metric
}

func (r *result) correct() bool { return r.failed == 0 }

// liveRun is what the measured window produced, kept for the traced run.
type liveRun struct {
	in      *inputs
	window  phaseResult
	readP50 float64
	// delta is the servers' /metrics movement over the window, summed
	// over processes (trace runs only).
	delta map[string]float64
}

// scrape sums the /metrics series of every process of the deployment.
func scrape(d *deployment) (map[string]float64, error) {
	sum := map[string]float64{}
	for _, p := range d.procs {
		resp, err := http.Get("http://" + p.addr + "/metrics")
		if err != nil {
			return nil, err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		for k, v := range parseMetrics(b) {
			sum[k] += v
		}
	}
	return sum, nil
}

// runWorkload measures one workload end to end against live processes:
// generate inputs, cold-start the deployment (several times, for
// setup_s), warm up, measure the window, and for mutate_mix crash and
// restart. With cfg.trace it then makes the in-process traced run.
func runWorkload(cfg config) (*result, error) {
	dir, err := runDir(cfg.workBase, cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	in, err := buildInputs(cfg.workload, cfg.seed, cfg.sz, dir)
	if err != nil {
		return nil, err
	}

	// Cold starts. Each uses its own WAL directory so that every start
	// opens an empty log; the last deployment is kept for the run.
	var d *deployment
	var setups []float64
	var walDir string
	for i := 0; i < cfg.coldStarts; i++ {
		if d != nil {
			d.stop()
		}
		walDir = filepath.Join(dir, fmt.Sprintf("wal%d", i))
		var took time.Duration
		d, took, err = coldStart(cfg.bins, in, dir, walDir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer func() { d.stop() }()

	res := &result{workload: cfg.workload}
	var cur [clients]cursor
	warm := runPhase(d.url(), in, &cur, cfg.warmup)

	var before map[string]float64
	if cfg.trace {
		if before, err = scrape(d); err != nil {
			return nil, err
		}
	}
	cpu0, err := cpuTicks(d.procs)
	if err != nil {
		return nil, err
	}
	win := runPhase(d.url(), in, &cur, cfg.window)
	cpu1, err := cpuTicks(d.procs)
	if err != nil {
		return nil, err
	}
	rssKiB, err := peakRSSKiB(d.procs)
	if err != nil {
		return nil, err
	}
	live := &liveRun{in: in, window: win}
	if cfg.trace {
		after, err := scrape(d)
		if err != nil {
			return nil, err
		}
		live.delta = metricsDelta(before, after)
	}

	res.attempted = warm.attempted + win.attempted
	res.failed = warm.failed + win.failed
	res.errs = append(warm.errs, win.errs...)

	lost := 0
	if cfg.workload == wlMutateMix {
		d.stop()
		lost, err = lostWrites(cfg.bins, in, dir, walDir, [][clients][]int{warm.acked, win.acked})
		if err != nil {
			return nil, err
		}
		if lost > 0 {
			res.failed += lost
			res.errs = append(res.errs, fmt.Sprintf("%d acknowledged write batches lost across SIGKILL and restart", lost))
		}
	}

	ok := len(win.readMS) + len(win.writeMS)
	if ok == 0 {
		return nil, fmt.Errorf("bench: %s: no operation succeeded in the window; first errors: %v", cfg.workload, res.errs)
	}
	p99 := tailQuantile(win.readMS, 0.99)
	live.readP50 = median(win.readMS)
	cpuMS := float64(cpu1-cpu0) * 1000 / clockTicksPerSecond
	res.e2e = []metric{
		{Name: "setup_s", Unit: "s", Value: medianOf(setups), Note: fmt.Sprintf("median of %d cold starts", len(setups))},
		{Name: "read_p50_ms", Unit: "ms", Value: live.readP50, Note: fmt.Sprintf("%d samples", len(win.readMS))},
		{Name: "read_p99_ms", Unit: "ms", Value: p99.Value, Note: p99.String()},
		{Name: "throughput_ops_s", Unit: "ops/s", Value: float64(ok) / win.elapsed.Seconds(), Note: fmt.Sprintf("%d verified ops in %.2fs at %d closed-loop clients", ok, win.elapsed.Seconds(), clients)},
		{Name: "cpu_ms_per_op", Unit: "ms", Value: cpuMS / float64(ok), Note: "user+system of the server processes"},
		{Name: "peak_rss_mb", Unit: "MiB", Value: float64(rssKiB) / 1024, Note: "sum of VmHWM at window end"},
	}
	wp50 := metric{Name: "write_p50_ms", Unit: "ms", Note: "n/a: the workload has no writes"}
	wp99 := metric{Name: "write_p99_ms", Unit: "ms", Note: wp50.Note}
	lostM := metric{Name: "acked_writes_lost", Unit: "count", Note: wp50.Note}
	if cfg.workload == wlMutateMix {
		q := tailQuantile(win.writeMS, 0.99)
		wp50.Value, wp50.Note = median(win.writeMS), fmt.Sprintf("%d samples, durable before 200", len(win.writeMS))
		wp99.Value, wp99.Note = q.Value, q.String()
		lostM.Value, lostM.Note = float64(lost), "after SIGKILL and restart on the same -wal directory; SIGKILL leaves the OS page cache intact"
	}
	res.extra = []metric{
		wp50, wp99,
		{Name: "failed_ratio", Unit: "ratio", Value: ratio(float64(win.failed), float64(win.attempted)), Note: fmt.Sprintf("%d of %d window ops", win.failed, win.attempted)},
		lostM,
	}

	if cfg.trace {
		res.layers, err = traceWorkload(cfg, live)
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}
