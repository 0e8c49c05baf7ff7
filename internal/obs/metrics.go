// Process-wide metrics: a fixed registry of counters and fixed-bucket
// latency histograms covering the query pipeline (queries, matches, gindex
// pruning, pool fan-out, errors, slow queries). Counters are single atomic
// adds and are always on; the instrumented call sites fire once per
// operator or query, never per work item, so the steady-state cost is
// negligible next to evaluation work.
//
// The registry is exposed two ways: expvar (one "gqldb" var holding a
// snapshot map, for the standard /debug/vars endpoint) and WritePrometheus
// (the text exposition format, for scraping or dumping from tools).
package obs

import (
	"expvar"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	name string
	help string
	v    atomic.Int64
}

// Add increments the counter by n (negative n is ignored: counters only go
// up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Name returns the metric name.
func (c *Counter) Name() string { return c.name }

// defBuckets are the fixed histogram upper bounds in seconds: sub-100µs
// index probes through multi-second analytical queries.
var defBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket latency histogram. Observations are counted
// into the first bucket whose upper bound is >= the value, plus a +Inf
// overflow bucket, with a running count and sum — the Prometheus histogram
// shape.
type Histogram struct {
	name    string
	help    string
	bounds  []float64 // upper bounds in seconds, ascending
	buckets []atomic.Int64
	count   atomic.Int64
	sumNs   atomic.Int64
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	sec := d.Seconds()
	i := 0
	for i < len(h.bounds) && sec > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(int64(d))
}

// vecSlots is the fixed label space of a Vec: worker ordinals 0..vecSlots-1,
// with the last slot absorbing any higher ordinal so unbounded worker counts
// cannot grow the registry.
const vecSlots = 64

// Vec is a counter vector over a small fixed integer label space (worker
// ordinals). Every slot is an independent atomic counter; Add clamps the
// index into range, so callers never bounds-check. A Vec whose seconds flag
// is set stores nanoseconds and is exposed in seconds.
type Vec struct {
	name    string
	help    string
	label   string
	seconds bool
	slots   [vecSlots]atomic.Int64
}

// Add increments slot i by n (negative n ignored; i clamped to the label
// space).
func (v *Vec) Add(i int, n int64) {
	if n <= 0 {
		return
	}
	if i < 0 {
		i = 0
	}
	if i >= vecSlots {
		i = vecSlots - 1
	}
	v.slots[i].Add(n)
}

// Value returns slot i's raw count (0 outside the label space).
func (v *Vec) Value(i int) int64 {
	if i < 0 || i >= vecSlots {
		return 0
	}
	return v.slots[i].Load()
}

// Name returns the metric name.
func (v *Vec) Name() string { return v.name }

// each visits every non-zero slot in ordinal order.
func (v *Vec) each(fn func(i int, n int64)) {
	for i := range v.slots {
		if n := v.slots[i].Load(); n != 0 {
			fn(i, n)
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total observed time.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNs.Load()) }

// Name returns the metric name.
func (h *Histogram) Name() string { return h.name }

// The process-wide metric set.
var (
	// Queries counts engine program executions: RunContext, RunQuery and
	// StreamQuery, result-cache hits included.
	Queries = newCounter("gqldb_queries_total", "programs executed by the query engine")
	// QueryErrors counts executions that returned an error (including
	// cancellation).
	QueryErrors = newCounter("gqldb_query_errors_total", "program executions that returned an error")
	// SlowQueries counts executions that crossed the engine's slow-query
	// threshold.
	SlowQueries = newCounter("gqldb_slow_queries_total", "program executions over the slow-query threshold")
	// Matches counts mappings produced by the selection operator.
	Matches = newCounter("gqldb_matches_total", "mappings produced by selection")
	// GindexCandidates counts graphs that survived the path-feature filter.
	GindexCandidates = newCounter("gqldb_gindex_candidates_total", "graphs kept by the collection index filter")
	// GindexPruned counts graphs the path-feature filter skipped without
	// verification.
	GindexPruned = newCounter("gqldb_gindex_pruned_total", "graphs pruned by the collection index filter")
	// StoreMutations counts committed document-store batches, RegisterDoc
	// included; each one bumps the store version and invalidates the
	// cached results that read a document it wrote.
	StoreMutations = newCounter("gqldb_store_mutations_total", "versioned document store writes")
	// MutationsApplied counts individual mutations committed through the
	// transactional Apply path (a batch of N adds N).
	MutationsApplied = newCounter("gqldb_mutations_applied_total", "mutations committed via transactional apply")
	// StoreDocRebuilds counts documents repartitioned from scratch during
	// a mutation commit (drops, fresh documents, shard-count changes).
	StoreDocRebuilds = newCounter("gqldb_store_doc_rebuilds_total", "documents fully repartitioned during mutation commit")
	// StoreShardRebuilds counts single shards rebuilt incrementally during
	// a mutation commit (the node/edge delta fast path).
	StoreShardRebuilds = newCounter("gqldb_store_shard_rebuilds_total", "shards rebuilt incrementally during mutation commit")
	// WALAppends counts mutation batches appended to the write-ahead log.
	WALAppends = newCounter("gqldb_wal_appends_total", "mutation batches appended to the WAL")
	// WALReplayed counts mutation batches replayed from the WAL on open.
	WALReplayed = newCounter("gqldb_wal_replayed_total", "mutation batches replayed from the WAL at recovery")
	// WALCheckpoints counts snapshot checkpoints that truncated the WAL.
	WALCheckpoints = newCounter("gqldb_wal_checkpoints_total", "snapshot checkpoints truncating the WAL")
	// ShardedSelections counts selection operators the coordinator fanned
	// across document shards through a shard selector (the shard wire).
	ShardedSelections = newCounter("gqldb_sharded_selections_total", "selections fanned across document shards through a shard selector")
	// CacheHits counts result-cache lookups served from a cached entry.
	CacheHits = newCounter("gqldb_cache_hits_total", "query result cache hits")
	// CacheMisses counts result-cache lookups that fell through to
	// evaluation.
	CacheMisses = newCounter("gqldb_cache_misses_total", "query result cache misses")
	// CacheEvictions counts entries dropped by the cache's LRU capacity
	// bound.
	CacheEvictions = newCounter("gqldb_cache_evictions_total", "query result cache capacity evictions")
	// CacheInvalidations counts per-document purges: a lookup at a newer
	// version of a document drops every entry that read it at an older one
	// (one count per purge that removed anything; other documents' entries
	// stay).
	CacheInvalidations = newCounter("gqldb_cache_invalidations_total", "query result cache purges of entries that read an older version of a document")
	// PlanCacheHits counts selections whose §4.4 search plan (feasible
	// mates and search order) was served from the plan cache.
	PlanCacheHits = newCounter("gqldb_plan_cache_hits_total", "match plan cache hits")
	// PlanCacheMisses counts plan-cache lookups that fell through to
	// retrieval and planning.
	PlanCacheMisses = newCounter("gqldb_plan_cache_misses_total", "match plan cache misses")
	// PlanCacheEvictions counts plans dropped by the plan cache's LRU
	// capacity bound.
	PlanCacheEvictions = newCounter("gqldb_plan_cache_evictions_total", "match plan cache capacity evictions")
	// PlanCacheInvalidations counts plan-cache entries dropped one at a time
	// by a lookup at a newer version of the entry's document.
	PlanCacheInvalidations = newCounter("gqldb_plan_cache_invalidations_total", "match plan cache entries dropped by a lookup at a newer document version")
	// PoolRuns counts bulk-operator executions on the worker pool.
	PoolRuns = newCounter("gqldb_pool_runs_total", "bulk operator executions on the worker pool")
	// PoolTasks counts individual work items fanned out on the pool.
	PoolTasks = newCounter("gqldb_pool_tasks_total", "work items fanned out on the worker pool")
	// PoolWorkerItems counts work items executed per worker ordinal: slot w
	// is the w-th goroutine of each pool.Run fan-out (slot 0 is also the
	// serial path), so a skewed distribution means chunks are not
	// load-balancing.
	PoolWorkerItems = newVec("gqldb_pool_worker_items_total", "work items executed per pool worker ordinal", "worker", false)
	// PoolWorkerBusy accumulates the time each worker ordinal spent inside
	// work functions; utilization is the slot's rate against wall time.
	PoolWorkerBusy = newVec("gqldb_pool_worker_busy_seconds_total", "time spent executing work items per pool worker ordinal", "worker", true)
	// HTTPRequests counts requests reaching the server frontend's handlers.
	HTTPRequests = newCounter("gqldb_http_requests_total", "requests served by the HTTP frontend")
	// HTTPOverload counts queries rejected by admission control (429).
	HTTPOverload = newCounter("gqldb_http_overload_rejections_total", "queries rejected by the admission limiter")
	// HTTPTimeouts counts queries that hit their per-request deadline.
	HTTPTimeouts = newCounter("gqldb_http_request_timeouts_total", "queries terminated by the per-request deadline")
	// StreamRows counts result rows pushed through streaming result sinks
	// (every RunQuery collect and the v2 NDJSON surface).
	StreamRows = newCounter("gqldb_stream_rows_total", "result rows pushed through streaming sinks")
	// StreamTruncations counts streams ended early by a take limit or a
	// sink stop (truncated streams never fill the result cache).
	StreamTruncations = newCounter("gqldb_stream_truncations_total", "result streams ended early by take or sink stop")
	// StreamFlushes counts forced flushes of streamed HTTP responses.
	StreamFlushes = newCounter("gqldb_stream_flushes_total", "forced flushes of streamed HTTP responses")
	// BatchQueries counts programs executed through the v2 batch endpoint.
	BatchQueries = newCounter("gqldb_batch_queries_total", "programs executed via the v2 batch endpoint")
	// ShardRPCs counts shard selection requests issued by the remote
	// selector (every attempt, including retries and hedges).
	ShardRPCs = newCounter("gqldb_shard_rpcs_total", "shard selection requests issued by the remote selector")
	// ShardRPCErrors counts shard selection attempts that failed (transport
	// errors, error frames, malformed streams).
	ShardRPCErrors = newCounter("gqldb_shard_rpc_errors_total", "failed shard selection attempts")
	// ShardRetries counts selection attempts beyond the first for a shard
	// (the bounded-retry path after a failed or stale attempt).
	ShardRetries = newCounter("gqldb_shard_retries_total", "shard selection retries after a failed attempt")
	// ShardHedges counts hedge requests fired at a replica after the
	// primary exceeded the hedge delay.
	ShardHedges = newCounter("gqldb_shard_hedges_total", "hedge requests fired at a shard replica")
	// ShardHedgeWins counts hedged selections where the replica answered
	// first.
	ShardHedgeWins = newCounter("gqldb_shard_hedge_wins_total", "hedged shard selections won by the replica")
	// ShardResyncs counts documents pushed to a shard server after a stale
	// version handshake (the read-replica convergence path).
	ShardResyncs = newCounter("gqldb_shard_resyncs_total", "documents pushed to stale shard servers")
	// ShardPartialResults counts shards dropped from an answer under the
	// explicit allow-partial degradation mode.
	ShardPartialResults = newCounter("gqldb_shard_partial_results_total", "shards dropped from answers under allow-partial")
	// ShardProbeFailures counts failed background health probes of shard
	// endpoints.
	ShardProbeFailures = newCounter("gqldb_shard_probe_failures_total", "failed shard endpoint health probes")
	// ShardSelections counts shard selection jobs served by the shard
	// server's /shard/select handler.
	ShardSelections = newCounter("gqldb_shard_selections_total", "selection jobs served by the shard server")
	// ShardStaleRejections counts selection jobs the shard server rejected
	// over the version handshake (content hash mismatch or unknown doc).
	ShardStaleRejections = newCounter("gqldb_shard_stale_rejections_total", "selection jobs rejected by the shard version handshake")
	// ShardSyncs counts documents installed via the shard server's
	// /shard/sync handler.
	ShardSyncs = newCounter("gqldb_shard_syncs_total", "documents installed via shard sync")
	// QuerySeconds is the end-to-end program latency distribution.
	QuerySeconds = newHistogram("gqldb_query_seconds", "program wall time")
	// SelectionSeconds is the per-selection-operator latency distribution.
	SelectionSeconds = newHistogram("gqldb_selection_seconds", "selection operator wall time")
)

// registry holds every metric in registration order for the dumps.
var registry struct {
	mu       sync.Mutex
	counters []*Counter
	vecs     []*Vec
	hists    []*Histogram
}

func newCounter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	registry.mu.Lock()
	registry.counters = append(registry.counters, c)
	registry.mu.Unlock()
	return c
}

func newVec(name, help, label string, seconds bool) *Vec {
	v := &Vec{name: name, help: help, label: label, seconds: seconds}
	registry.mu.Lock()
	registry.vecs = append(registry.vecs, v)
	registry.mu.Unlock()
	return v
}

func newHistogram(name, help string) *Histogram {
	h := &Histogram{name: name, help: help, bounds: defBuckets,
		buckets: make([]atomic.Int64, len(defBuckets)+1)}
	registry.mu.Lock()
	registry.hists = append(registry.hists, h)
	registry.mu.Unlock()
	return h
}

func init() {
	// One expvar under "gqldb" (visible on /debug/vars next to the runtime
	// vars) holding the whole registry snapshot.
	expvar.Publish("gqldb", expvar.Func(func() any { return Snapshot() }))
}

// Snapshot returns the current value of every metric: counters as int64,
// histograms as {count, sum_seconds} maps.
func Snapshot() map[string]any {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	out := make(map[string]any, len(registry.counters)+len(registry.vecs)+len(registry.hists))
	for _, c := range registry.counters {
		out[c.name] = c.Value()
	}
	for _, v := range registry.vecs {
		m := make(map[string]any)
		v.each(func(i int, n int64) {
			if v.seconds {
				m[fmt.Sprint(i)] = time.Duration(n).Seconds()
			} else {
				m[fmt.Sprint(i)] = n
			}
		})
		out[v.name] = m
	}
	for _, h := range registry.hists {
		out[h.name] = map[string]any{
			"count":       h.Count(),
			"sum_seconds": h.Sum().Seconds(),
		}
	}
	return out
}

// WritePrometheus dumps the registry in the Prometheus text exposition
// format (counters and cumulative-bucket histograms).
func WritePrometheus(w io.Writer) error {
	registry.mu.Lock()
	counters := append([]*Counter(nil), registry.counters...)
	vecs := append([]*Vec(nil), registry.vecs...)
	hists := append([]*Histogram(nil), registry.hists...)
	registry.mu.Unlock()
	for _, c := range counters {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			c.name, c.help, c.name, c.name, c.Value()); err != nil {
			return err
		}
	}
	for _, v := range vecs {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", v.name, v.help, v.name); err != nil {
			return err
		}
		var werr error
		v.each(func(i int, n int64) {
			if werr != nil {
				return
			}
			if v.seconds {
				_, werr = fmt.Fprintf(w, "%s{%s=\"%d\"} %g\n", v.name, v.label, i, time.Duration(n).Seconds())
			} else {
				_, werr = fmt.Fprintf(w, "%s{%s=\"%d\"} %d\n", v.name, v.label, i, n)
			}
		})
		if werr != nil {
			return werr
		}
	}
	for _, h := range hists {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", h.name, h.help, h.name); err != nil {
			return err
		}
		cum := int64(0)
		for i, ub := range h.bounds {
			cum += h.buckets[i].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", h.name, ub, cum); err != nil {
				return err
			}
		}
		cum += h.buckets[len(h.bounds)].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %g\n%s_count %d\n",
			h.name, cum, h.name, h.Sum().Seconds(), h.name, h.Count()); err != nil {
			return err
		}
	}
	return nil
}
