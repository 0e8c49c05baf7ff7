package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"sort"
	"sync"
	"time"
)

// checkpointEvery is mutate_mix's -checkpoint-every: at the measured ~30
// writes a second it gives about seven checkpoint cycles per 15 s window
// (the store's default, 256, would give one or two).
const checkpointEvery = "64"

// deployment is one workload's set of server processes.
type deployment struct {
	// procs are all server processes: CPU and memory are summed over them.
	procs []*proc
	// front is the process the clients talk to.
	front *proc
}

func (d *deployment) stop() {
	for _, p := range d.procs {
		p.kill()
	}
}

func (d *deployment) url() string { return "http://" + d.front.addr }

// deploy starts the workload's servers with the flags ISSUE 11 fixed for
// it and returns once every process listens. walDir is used by mutate_mix
// only; starting again on the same walDir is the crash check's restart.
func deploy(bins binaries, in *inputs, dir, walDir string) (*deployment, error) {
	d := &deployment{}
	docArg := in.doc + "=" + in.corpusPath
	common := []string{"-addr", "127.0.0.1:0", "-doc", docArg}
	start := func(name, bin string, args ...string) (*proc, error) {
		p, err := startProc(dir, name, bin, append(append([]string(nil), common...), args...)...)
		if err != nil {
			d.stop()
			return nil, err
		}
		d.procs = append(d.procs, p)
		return p, nil
	}
	var err error
	switch in.workload {
	case wlPPIClique:
		d.front, err = start("server", bins.server, "-shards", "1", "-cache", "0", "-plan-cache", "0")
	case wlCollCached:
		d.front, err = start("server", bins.server, "-shards", "4", "-index-paths", "3", "-cache", "256", "-plan-cache", "256")
	case wlCollCluster:
		args := []string{"-shards", "4", "-cache", "0", "-plan-cache", "0", "-shard-hedge-after", "0"}
		// Two mirrors, not ROADMAP's three: the box has two cores.
		for i := 0; i < 2; i++ {
			m, merr := start(fmt.Sprintf("shard%d", i), bins.shard, "-shards", "4", "-index-paths", "3")
			if merr != nil {
				return nil, merr
			}
			args = append(args, "-selector", "http://"+m.addr)
		}
		d.front, err = start("server", bins.server, args...)
	case wlMutateMix:
		d.front, err = start("server", bins.server, "-wal", walDir, "-wal-sync=true", "-checkpoint-every", checkpointEvery,
			"-admin", "-shards", "4", "-index-paths", "3", "-cache", "256", "-plan-cache", "256")
	default:
		err = fmt.Errorf("bench: unknown workload %q", in.workload)
	}
	if err != nil {
		return nil, err
	}
	return d, nil
}

// client is one closed-loop caller: one keep-alive connection, one request
// in flight.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newClient(base string) *client {
	return &client{
		base: base,
		hc: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		},
	}
}

// post sends one request and reads the whole response. The latency runs
// from just before the request is written to the last body byte read; the
// returned body is valid until the next post.
func (c *client) post(path string, body []byte) (status int, resp []byte, lat time.Duration, err error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	r, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	c.buf.Reset()
	_, err = io.Copy(&c.buf, r.Body)
	lat = time.Since(start)
	r.Body.Close()
	if err != nil {
		return r.StatusCode, nil, lat, err
	}
	return r.StatusCode, c.buf.Bytes(), lat, nil
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// cursor is a client's position in its schedule and write sequence; it
// carries over from warm-up into the measured window.
type cursor struct {
	pos, nextWrite int
}

// phaseResult is what one closed-loop phase observed.
type phaseResult struct {
	// readMS and writeMS are the latencies of verified-correct ops.
	readMS, writeMS []float64
	attempted       int
	failed          int
	// errs keeps the first few failures for the report.
	errs []string
	// elapsed runs from the phase start to the last client's last answer.
	elapsed time.Duration
	// acked[c] lists the indexes of client c's acknowledged writes.
	acked [clients][]int
}

// runPhase drives the deployment with every client for dur, each walking
// its schedule from its cursor. A client stops issuing at the deadline; an
// op in flight then still completes and counts.
func runPhase(base string, in *inputs, cur *[clients]cursor, dur time.Duration) phaseResult {
	// Each client fills its own slot; the slots are merged after the wait.
	var parts [clients]phaseResult
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(base)
			defer cl.close()
			var part phaseResult
			sched := in.sched[c]
			for time.Now().Before(deadline) {
				slot := sched[cur[c].pos%len(sched)]
				part.attempted++
				if slot == schedWrite && cur[c].nextWrite >= len(in.writes[c]) {
					part.errs = append(part.errs, fmt.Sprintf("client %d: write sequence exhausted after %d batches", c, cur[c].nextWrite))
					part.failed++
					break
				}
				cur[c].pos++
				var err error
				if slot == schedWrite {
					wi := cur[c].nextWrite
					cur[c].nextWrite++
					op := &in.writes[c][wi]
					status, body, lat, perr := cl.post("/v2/mutate", op.body)
					if err = perr; err == nil {
						err = checkWrite(op, status, body)
					}
					if err == nil {
						part.writeMS = append(part.writeMS, float64(lat)/float64(time.Millisecond))
						part.acked[c] = append(part.acked[c], wi)
					}
				} else {
					op := &in.reads[slot]
					status, body, lat, perr := cl.post("/v2/query", op.body)
					if err = perr; err == nil {
						err = checkRead(op, status, body)
					}
					if err == nil {
						part.readMS = append(part.readMS, float64(lat)/float64(time.Millisecond))
					}
				}
				if err != nil {
					part.failed++
					if len(part.errs) < 3 {
						part.errs = append(part.errs, fmt.Sprintf("client %d op %d: %v", c, cur[c].pos-1, err))
					}
				}
			}
			parts[c] = part
		}(c)
	}
	wg.Wait()
	res := phaseResult{elapsed: time.Since(start)}
	for c, part := range parts {
		res.readMS = append(res.readMS, part.readMS...)
		res.writeMS = append(res.writeMS, part.writeMS...)
		res.attempted += part.attempted
		res.failed += part.failed
		res.errs = append(res.errs, part.errs...)
		res.acked[c] = part.acked[c]
	}
	sort.Float64s(res.readMS)
	sort.Float64s(res.writeMS)
	return res
}

// probe sends the workload's first read and verifies the answer: the
// moment a deployment counts as set up.
func probe(base string, in *inputs) error {
	cl := newClient(base)
	defer cl.close()
	op := &in.reads[0]
	status, body, _, err := cl.post("/v2/query", op.body)
	if err != nil {
		return err
	}
	return checkRead(op, status, body)
}

// coldStart deploys the workload and waits for the first verified answer,
// returning the deployment and how long that took.
func coldStart(bins binaries, in *inputs, dir, walDir string) (*deployment, time.Duration, error) {
	start := time.Now()
	d, err := deploy(bins, in, dir, walDir)
	if err != nil {
		return nil, 0, err
	}
	if err := probe(d.url(), in); err != nil {
		tail := d.front.logTail()
		d.stop()
		return nil, 0, fmt.Errorf("bench: %s: set-up probe failed: %w\nserver log:\n%s", in.workload, err, tail)
	}
	return d, time.Since(start), nil
}

var scratchNameRE = regexp.MustCompile(`name=\\"([^"\\]+)\\"`)

// lostWrites is mutate_mix's crash check. The caller has SIGKILLed the
// server after the window; this restarts it on the same -wal directory
// and counts the acknowledged batches whose effect is missing: a scratch
// node that should be there and is not, or one that was deleted or
// dropped and is back. SIGKILL leaves the operating system's page cache
// intact, so this checks the WAL's ordering and replay, not the disk's
// honesty about fsync.
func lostWrites(bins binaries, in *inputs, dir, walDir string, acked [][clients][]int) (int, error) {
	// owner maps a scratch node name to the batch that last decided its
	// fate; want is the set that must exist.
	type batch struct{ client, idx int }
	owner := map[string]batch{}
	want := map[string]bool{}
	for _, phase := range acked {
		for c := 0; c < clients; c++ {
			for _, wi := range phase[c] {
				w := &in.writes[c][wi]
				for _, n := range w.adds {
					want[n], owner[n] = true, batch{c, wi}
				}
				for _, n := range w.removes {
					want[n], owner[n] = false, batch{c, wi}
				}
			}
		}
	}
	d, err := deploy(bins, in, dir, walDir)
	if err != nil {
		return 0, fmt.Errorf("bench: restart after SIGKILL: %w", err)
	}
	defer d.stop()
	cl := newClient(d.url())
	defer cl.close()
	status, body, _, err := cl.post("/v2/query", encodeQuery(scratchProbe, -1))
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("bench: scratch probe after restart: HTTP %d: %.200s", status, body)
	}
	if _, _, err := digestQueryResponse(body); err != nil {
		return 0, fmt.Errorf("bench: scratch probe after restart: %w", err)
	}
	have := map[string]bool{}
	for _, m := range scratchNameRE.FindAllSubmatch(body, -1) {
		have[string(m[1])] = true
	}
	lost := map[batch]bool{}
	for n, w := range want {
		if w != have[n] {
			lost[owner[n]] = true
		}
	}
	for n := range have {
		if _, known := want[n]; !known {
			return 0, fmt.Errorf("bench: scratch node %q exists after restart but no acknowledged batch created it", n)
		}
	}
	return len(lost), nil
}

// runDir creates a fresh directory for one run's files under base.
func runDir(base, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, fmt.Sprintf("%s-%d-", workload, seed))
}
