package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestQuickSmoke is `go run ./bench -quick` under `go test`: it builds the
// two server binaries, runs all four workloads at the smoke sizes — live
// processes, oracle, crash-and-restart check, then the traced run — and
// requires every op correct, every end-to-end metric positive, every
// trace file written and no process left behind.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and starts server processes")
	}
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	// Registered before any process starts, so it runs on every exit path,
	// t.Fatal included; the temp dir is removed after it.
	t.Cleanup(killAll)
	bins, err := buildBinaries(root, filepath.Join(tmp, "bin"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		cfg := config{
			workload: w, seed: 3, sz: quickSizes,
			window: time.Second, warmup: 300 * time.Millisecond,
			coldStarts: 2, trace: true, bins: bins,
			workBase: filepath.Join(tmp, "run"), outDir: filepath.Join(tmp, "out"),
		}
		res, err := runWorkload(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !res.correct() || res.attempted == 0 {
			t.Errorf("%s: %d of %d ops failed: %v", w, res.failed, res.attempted, res.errs)
		}
		for _, m := range res.e2e {
			if !(m.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.Name, m.Value)
			}
		}
		extra := map[string]float64{}
		for _, m := range res.extra {
			extra[m.Name] = m.Value
		}
		if extra["failed_ratio"] != 0 || extra["acked_writes_lost"] != 0 {
			t.Errorf("%s: failed_ratio %v, acked_writes_lost %v; want 0", w, extra["failed_ratio"], extra["acked_writes_lost"])
		}
		if (w == wlMutateMix) != (extra["write_p50_ms"] > 0) {
			t.Errorf("%s: write_p50_ms = %v", w, extra["write_p50_ms"])
		}
		if len(res.layers) == 0 {
			t.Errorf("%s: the traced run reported no layer metrics", w)
		}
		if st, err := os.Stat(filepath.Join(cfg.outDir, "trace_"+w+".json")); err != nil || st.Size() == 0 {
			t.Errorf("%s: no span file: %v", w, err)
		}
	}
	live.mu.Lock()
	left := len(live.procs)
	live.mu.Unlock()
	if left != 0 {
		t.Errorf("%d server processes still registered after the runs", left)
	}
	if ents, _ := os.ReadDir(filepath.Join(tmp, "run")); len(ents) != 0 {
		t.Errorf("%d run directories left behind", len(ents))
	}
}
