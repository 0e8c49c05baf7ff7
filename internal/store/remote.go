// RemoteSelector: the multi-process ShardSelector. It speaks the wire
// protocol (wire.go) against N shard-server endpoints, turning the
// in-process Coordinator into a cluster query router without changing the
// fan-out/merge. Every shard server mirrors the full document set and
// partitions it identically (shardOf is deterministic), so shard ordinal i
// is served by endpoint i mod N and every other endpoint is a replica —
// which is what makes bounded retry rotation and hedging correct.
package store

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"gqldb/internal/algebra"
	"gqldb/internal/graph"
	"gqldb/internal/obs"
)

// ShardError is the per-shard failure report of a remote selection: which
// endpoint last answered (or refused), which shard of which document was
// being fetched, and how many attempts were burned. By default it fails
// the whole query; under allow-partial the shard is dropped instead and
// the degradation is visible on the result's RemoteInfo and the
// gqldb_shard_partial_results_total counter.
type ShardError struct {
	Endpoint string
	Doc      string
	Shard    int
	Attempts int
	Err      error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("store: shard %d of %q unavailable after %d attempt(s) (last endpoint %s): %v",
		e.Shard, e.Doc, e.Attempts, e.Endpoint, e.Err)
}

// Unwrap exposes the last attempt's error to errors.Is/As.
func (e *ShardError) Unwrap() error { return e.Err }

// ShardHealth is one endpoint's last-probe state, surfaced on the
// frontend's /healthz.
type ShardHealth struct {
	Endpoint string    `json:"endpoint"`
	Healthy  bool      `json:"healthy"`
	Err      string    `json:"error,omitempty"`
	Checked  time.Time `json:"checked"`
	Version  uint64    `json:"store_version,omitempty"`
	Docs     int       `json:"docs,omitempty"`
}

// RemoteSelector implements ShardSelector over HTTP shard servers.
//
// Configure with the Set* mutators before the first SelectShard; they are
// startup-only (not synchronized against serving — enforced by gqlvet's
// gosafe table). Health state is mutex-guarded: Probe may run on a
// background ticker while queries fan out.
type RemoteSelector struct {
	endpoints []string
	client    *http.Client

	// timeout bounds each attempt; retries bounds attempts beyond the
	// first; hedgeAfter, when positive, fires a duplicate request at the
	// next replica if the primary has not answered in time; allowPartial
	// degrades a dead shard to an empty answer instead of failing the
	// query.
	timeout      time.Duration
	retries      int
	hedgeAfter   time.Duration
	allowPartial bool

	mu     sync.Mutex
	health []ShardHealth
}

// NewRemoteSelector returns a selector over the given shard-server base
// URLs (e.g. "http://127.0.0.1:7301"). Defaults: 10s per-attempt timeout,
// 2 retries, hedging off, partial results off.
func NewRemoteSelector(endpoints []string) *RemoteSelector {
	eps := make([]string, len(endpoints))
	health := make([]ShardHealth, len(endpoints))
	for i, ep := range endpoints {
		eps[i] = strings.TrimRight(ep, "/")
		health[i] = ShardHealth{Endpoint: eps[i]}
	}
	return &RemoteSelector{
		endpoints: eps,
		client:    &http.Client{},
		timeout:   10 * time.Second,
		retries:   2,
		health:    health,
	}
}

// SetTimeout sets the per-attempt timeout (0 disables). Startup-only.
func (r *RemoteSelector) SetTimeout(d time.Duration) { r.timeout = d }

// SetRetries sets the retry budget beyond the first attempt (each retry
// rotates to the next replica endpoint). Startup-only.
func (r *RemoteSelector) SetRetries(n int) {
	if n < 0 {
		n = 0
	}
	r.retries = n
}

// SetHedgeAfter enables hedging: a duplicate request to the next replica
// when the primary has not answered within d (0 disables). Startup-only.
func (r *RemoteSelector) SetHedgeAfter(d time.Duration) { r.hedgeAfter = d }

// SetAllowPartial opts into degraded answers: a shard whose attempts are
// exhausted contributes no matches instead of failing the query.
// Startup-only.
func (r *RemoteSelector) SetAllowPartial(v bool) { r.allowPartial = v }

// endpoint maps a rotation index to a base URL.
func (r *RemoteSelector) endpoint(i int) string {
	return r.endpoints[i%len(r.endpoints)]
}

// SelectShard implements ShardSelector: encode the request once, then
// attempt endpoints starting at the shard's primary (index mod N),
// rotating on retry. A stale handshake answer triggers one resync push
// before retrying the same endpoint; hedging and timeouts apply per
// attempt. The answer's RemoteInfo records the path taken.
func (r *RemoteSelector) SelectShard(ctx context.Context, req ShardRequest) (ShardResult, error) {
	if req.Doc == nil {
		return ShardResult{}, errors.New("store: remote selection needs ShardRequest.Doc")
	}
	if len(r.endpoints) == 0 {
		return ShardResult{}, errors.New("store: remote selector has no endpoints")
	}
	start := time.Now()
	wr := &WireRequest{
		Doc:     req.Doc.Name,
		Shard:   req.Index,
		Shards:  len(req.Doc.Shards()),
		Version: req.Doc.Version(),
		Hash:    req.Doc.ContentHash(),
		Workers: req.Workers,
		Pattern: EncodePattern(req.P),
		Options: EncodeOptions(req.Opt),
	}
	var buf bytes.Buffer
	if err := EncodeRequest(&buf, wr); err != nil {
		return ShardResult{}, err
	}
	payload := buf.Bytes()

	info := &RemoteInfo{}
	resyncBudget := 1
	attempt := 0
	var lastErr error
	var lastEndpoint string
	for {
		if err := ctx.Err(); err != nil {
			return ShardResult{}, err
		}
		res, from, hedged, hedgeWon, err := r.attemptOne(ctx, r.endpoint(req.Index+attempt), req, payload, attempt)
		lastEndpoint = from
		if hedged {
			info.Hedged = true
		}
		if err == nil {
			info.Attempts = attempt + 1
			info.Endpoint = from
			info.HedgeWon = hedgeWon
			info.Wall = time.Since(start)
			res.Remote = info
			return res, nil
		}
		obs.ShardRPCErrors.Inc()
		lastErr = err
		if errIsStale(err) && resyncBudget > 0 {
			// The convergence path, not a failure retry: push the frontend's
			// document to the mirror that answered stale (the hedge backup
			// when it was the one) and ask again without burning the retry
			// budget.
			resyncBudget--
			if serr := r.sync(ctx, from, req.Doc); serr == nil {
				info.Resynced = true
				obs.ShardResyncs.Inc()
				continue
			} else {
				lastErr = serr
			}
		}
		attempt++
		if attempt > r.retries {
			break
		}
		obs.ShardRetries.Inc()
	}
	if r.allowPartial {
		obs.ShardPartialResults.Inc()
		info.Attempts = attempt
		info.Endpoint = lastEndpoint
		info.Degraded = true
		info.Wall = time.Since(start)
		return ShardResult{
			Groups: make([]algebra.Matched, len(req.Shard.Coll)),
			Remote: info,
		}, nil
	}
	return ShardResult{}, &ShardError{
		Endpoint: lastEndpoint,
		Doc:      req.Doc.Name,
		Shard:    req.Index,
		Attempts: attempt,
		Err:      lastErr,
	}
}

// attemptOne issues one (possibly hedged) request. With hedging enabled
// and a distinct replica available, the primary races a delayed duplicate;
// the first success wins and cancels the loser. Returns the endpoint that
// produced the answer (on failure, the one whose error is returned) and
// whether a hedge fired/won.
func (r *RemoteSelector) attemptOne(ctx context.Context, primary string, req ShardRequest, payload []byte, attempt int) (ShardResult, string, bool, bool, error) {
	backup := r.endpoint(req.Index + attempt + 1)
	if r.hedgeAfter <= 0 || backup == primary {
		res, err := r.call(ctx, primary, req, payload)
		return res, primary, false, false, err
	}

	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	type answer struct {
		res   ShardResult
		ep    string
		hedge bool
		err   error
	}
	ch := make(chan answer, 2)
	launch := func(ep string, hedge bool) {
		go func() {
			res, err := r.call(actx, ep, req, payload)
			ch <- answer{res: res, ep: ep, hedge: hedge, err: err}
		}()
	}
	launch(primary, false)
	inflight := 1
	hedged := false
	timer := time.NewTimer(r.hedgeAfter)
	defer timer.Stop()
	var lastErr error
	lastEp := primary
	for inflight > 0 {
		select {
		case <-ctx.Done():
			return ShardResult{}, primary, hedged, false, ctx.Err()
		case <-timer.C:
			if !hedged {
				hedged = true
				inflight++
				obs.ShardHedges.Inc()
				launch(backup, true)
			}
		case a := <-ch:
			inflight--
			if a.err == nil {
				if a.hedge {
					obs.ShardHedgeWins.Inc()
				}
				cancel()
				return a.res, a.ep, hedged, a.hedge, nil
			}
			lastErr, lastEp = a.err, a.ep
			if !hedged {
				// The primary failed before the hedge delay: fire the backup
				// immediately rather than waiting out the timer.
				hedged = true
				inflight++
				obs.ShardHedges.Inc()
				launch(backup, true)
			}
		}
	}
	return ShardResult{}, lastEp, hedged, false, lastErr
}

// call issues one shard-select request against one endpoint and decodes
// the NDJSON answer (in-band error frames surface as *ShardRemoteError).
func (r *RemoteSelector) call(ctx context.Context, endpoint string, req ShardRequest, payload []byte) (ShardResult, error) {
	obs.ShardRPCs.Inc()
	cctx := ctx
	if r.timeout > 0 {
		var cancel context.CancelFunc
		cctx, cancel = context.WithTimeout(ctx, r.timeout)
		defer cancel()
	}
	hreq, err := http.NewRequestWithContext(cctx, http.MethodPost, endpoint+"/shard/select", bytes.NewReader(payload))
	if err != nil {
		return ShardResult{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(hreq)
	if err != nil {
		return ShardResult{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return ShardResult{}, fmt.Errorf("store: shard endpoint %s answered HTTP %d", endpoint, resp.StatusCode)
	}
	return DecodeResult(resp.Body, req)
}

// sync pushes the frontend's document (binary collection serialization) to
// a shard server whose mirror went stale, so the next attempt's handshake
// matches. The shard re-partitions and re-indexes locally on install.
func (r *RemoteSelector) sync(ctx context.Context, endpoint string, d *Doc) error {
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, d.Collection()); err != nil {
		return err
	}
	cctx := ctx
	if r.timeout > 0 {
		var cancel context.CancelFunc
		cctx, cancel = context.WithTimeout(ctx, r.timeout)
		defer cancel()
	}
	u := endpoint + "/shard/sync?doc=" + url.QueryEscape(d.Name) + "&hash=" + url.QueryEscape(d.ContentHash())
	hreq, err := http.NewRequestWithContext(cctx, http.MethodPost, u, bytes.NewReader(buf.Bytes()))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/octet-stream")
	resp, err := r.client.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("store: shard sync to %s answered HTTP %d", endpoint, resp.StatusCode)
	}
	return nil
}

// Probe health-checks every endpoint once, updating the state returned by
// Health. Safe to run on a background ticker while queries fan out.
func (r *RemoteSelector) Probe(ctx context.Context) {
	for i, ep := range r.endpoints {
		h := ShardHealth{Endpoint: ep, Checked: time.Now()}
		if err := r.probeOne(ctx, ep, &h); err != nil {
			h.Healthy = false
			h.Err = err.Error()
			obs.ShardProbeFailures.Inc()
		}
		r.mu.Lock()
		r.health[i] = h
		r.mu.Unlock()
	}
}

func (r *RemoteSelector) probeOne(ctx context.Context, ep string, h *ShardHealth) error {
	cctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	hreq, err := http.NewRequestWithContext(cctx, http.MethodGet, ep+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := r.client.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("store: health probe answered HTTP %d", resp.StatusCode)
	}
	var body struct {
		Status  string `json:"status"`
		Docs    int    `json:"docs"`
		Version uint64 `json:"store_version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return err
	}
	h.Healthy = body.Status == "ok"
	h.Docs = body.Docs
	h.Version = body.Version
	if !h.Healthy {
		return fmt.Errorf("store: endpoint reports status %q", body.Status)
	}
	return nil
}

// Health returns a copy of every endpoint's last-probe state.
func (r *RemoteSelector) Health() []ShardHealth {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ShardHealth, len(r.health))
	copy(out, r.health)
	return out
}

// StartProbing launches a background prober (immediate probe, then every
// interval) and returns its stop function. The prober exits when ctx is
// canceled or stop is called. With every <= 0 it probes once, synchronously,
// and returns a no-op stop.
func (r *RemoteSelector) StartProbing(ctx context.Context, every time.Duration) (stop func()) {
	if every <= 0 {
		r.Probe(ctx)
		return func() {}
	}
	pctx, cancel := context.WithCancel(ctx)
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		r.Probe(pctx)
		for {
			select {
			case <-pctx.Done():
				return
			case <-t.C:
				r.Probe(pctx)
			}
		}
	}()
	return cancel
}
