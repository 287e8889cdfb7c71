package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jobs"
	"repro/internal/sched"
)

// endpoints the request counter tracks, in stable output order.
var endpointNames = []string{
	"evaluate", "evaluate_batch", "search", "vet",
	"jobs_submit", "jobs_list", "jobs_get", "jobs_events", "jobs_cancel",
}

// Metrics collects the service counters exported at /metrics in Prometheus
// text exposition format, using only the standard library.
type Metrics struct {
	requests map[string]*atomic.Uint64
	errors   atomic.Uint64
	latency  latencySampler
}

// NewMetrics allocates the counter set.
func NewMetrics() *Metrics {
	m := &Metrics{requests: make(map[string]*atomic.Uint64, len(endpointNames))}
	for _, e := range endpointNames {
		m.requests[e] = &atomic.Uint64{}
	}
	return m
}

// IncRequest counts one request against a known endpoint.
func (m *Metrics) IncRequest(endpoint string) {
	if c, ok := m.requests[endpoint]; ok {
		c.Add(1)
	}
}

// IncError counts one request that ended in an error response.
func (m *Metrics) IncError() { m.errors.Add(1) }

// ObserveLatency records one evaluate latency sample.
func (m *Metrics) ObserveLatency(d time.Duration) { m.latency.observe(d.Seconds()) }

// latencySampler keeps a fixed-size ring of recent latency samples plus
// running count/sum, enough for the p50/p99 summary quantiles without any
// dependency.
type latencySampler struct {
	mu    sync.Mutex
	ring  [4096]float64
	next  int
	count uint64
	sum   float64
}

func (s *latencySampler) observe(sec float64) {
	s.mu.Lock()
	s.ring[s.next] = sec
	s.next = (s.next + 1) % len(s.ring)
	s.count++
	s.sum += sec
	s.mu.Unlock()
}

// quantiles reports the requested quantiles over the retained window, plus
// lifetime count and sum. With no samples it returns zeros.
func (s *latencySampler) quantiles(qs []float64) (vals []float64, count uint64, sum float64) {
	s.mu.Lock()
	n := int(s.count)
	if n > len(s.ring) {
		n = len(s.ring)
	}
	samples := make([]float64, n)
	copy(samples, s.ring[:n])
	count, sum = s.count, s.sum
	s.mu.Unlock()

	vals = make([]float64, len(qs))
	if n == 0 {
		return vals, count, sum
	}
	sort.Float64s(samples)
	for i, q := range qs {
		idx := int(q * float64(n-1))
		vals[i] = samples[idx]
	}
	return vals, count, sum
}

// WritePrometheus renders all metrics. Cache and pool state are passed in
// so the metrics object itself stays a plain counter bag.
func (m *Metrics) WritePrometheus(w io.Writer, s *Server) {
	fmt.Fprintf(w, "# HELP tileflow_requests_total Requests received, by endpoint.\n")
	fmt.Fprintf(w, "# TYPE tileflow_requests_total counter\n")
	for _, e := range endpointNames {
		fmt.Fprintf(w, "tileflow_requests_total{endpoint=%q} %d\n", e, m.requests[e].Load())
	}
	fmt.Fprintf(w, "# HELP tileflow_request_errors_total Requests answered with an error status.\n")
	fmt.Fprintf(w, "# TYPE tileflow_request_errors_total counter\n")
	fmt.Fprintf(w, "tileflow_request_errors_total %d\n", m.errors.Load())

	st := s.CacheStats()
	fmt.Fprintf(w, "# HELP tileflow_cache_hits_total Evaluations served from the memoization cache (including shared in-flight results).\n")
	fmt.Fprintf(w, "# TYPE tileflow_cache_hits_total counter\n")
	fmt.Fprintf(w, "tileflow_cache_hits_total %d\n", st.Hits)
	fmt.Fprintf(w, "# HELP tileflow_cache_misses_total Evaluations that ran the analysis.\n")
	fmt.Fprintf(w, "# TYPE tileflow_cache_misses_total counter\n")
	fmt.Fprintf(w, "tileflow_cache_misses_total %d\n", st.Misses)
	fmt.Fprintf(w, "# HELP tileflow_cache_evictions_total Entries evicted by the LRU policy.\n")
	fmt.Fprintf(w, "# TYPE tileflow_cache_evictions_total counter\n")
	fmt.Fprintf(w, "tileflow_cache_evictions_total %d\n", st.Evictions)
	fmt.Fprintf(w, "# HELP tileflow_cache_entries Resident cache entries.\n")
	fmt.Fprintf(w, "# TYPE tileflow_cache_entries gauge\n")
	fmt.Fprintf(w, "tileflow_cache_entries %d\n", s.cache.Len())

	fmt.Fprintf(w, "# HELP tileflow_inflight_evaluations Evaluations currently holding a worker slot.\n")
	fmt.Fprintf(w, "# TYPE tileflow_inflight_evaluations gauge\n")
	fmt.Fprintf(w, "tileflow_inflight_evaluations %d\n", s.pool.InFlight())
	fmt.Fprintf(w, "# HELP tileflow_worker_slots Worker pool size.\n")
	fmt.Fprintf(w, "# TYPE tileflow_worker_slots gauge\n")
	fmt.Fprintf(w, "tileflow_worker_slots %d\n", s.pool.Workers())

	js := s.jobs.Stats()
	fmt.Fprintf(w, "# HELP tileflow_jobs_queue_depth Search jobs waiting for a worker.\n")
	fmt.Fprintf(w, "# TYPE tileflow_jobs_queue_depth gauge\n")
	fmt.Fprintf(w, "tileflow_jobs_queue_depth %d\n", js.QueueDepth)
	fmt.Fprintf(w, "# HELP tileflow_jobs_running Search jobs currently executing.\n")
	fmt.Fprintf(w, "# TYPE tileflow_jobs_running gauge\n")
	fmt.Fprintf(w, "tileflow_jobs_running %d\n", js.Running)
	fmt.Fprintf(w, "# HELP tileflow_jobs_completed_total Jobs that finished successfully.\n")
	fmt.Fprintf(w, "# TYPE tileflow_jobs_completed_total counter\n")
	fmt.Fprintf(w, "tileflow_jobs_completed_total %d\n", js.Done)
	fmt.Fprintf(w, "# HELP tileflow_jobs_failed_total Jobs that ended in an error.\n")
	fmt.Fprintf(w, "# TYPE tileflow_jobs_failed_total counter\n")
	fmt.Fprintf(w, "tileflow_jobs_failed_total %d\n", js.Failed)
	fmt.Fprintf(w, "# HELP tileflow_jobs_cancelled_total Jobs cancelled by clients.\n")
	fmt.Fprintf(w, "# TYPE tileflow_jobs_cancelled_total counter\n")
	fmt.Fprintf(w, "tileflow_jobs_cancelled_total %d\n", js.Cancelled)
	fmt.Fprintf(w, "# HELP tileflow_jobs_poisoned_total Jobs quarantined after exhausting their attempt budget.\n")
	fmt.Fprintf(w, "# TYPE tileflow_jobs_poisoned_total counter\n")
	fmt.Fprintf(w, "tileflow_jobs_poisoned_total %d\n", s.store.PoisonCount())
	fmt.Fprintf(w, "# HELP tileflow_job_checkpoint_age_seconds Staleness of the most out-of-date checkpoint among running jobs.\n")
	fmt.Fprintf(w, "# TYPE tileflow_job_checkpoint_age_seconds gauge\n")
	fmt.Fprintf(w, "tileflow_job_checkpoint_age_seconds %g\n", js.CheckpointAge.Seconds())

	m.writeSched(w, s, js)
	m.writeFleet(w, s)

	qs, count, sum := m.latency.quantiles([]float64{0.5, 0.99})
	fmt.Fprintf(w, "# HELP tileflow_evaluate_latency_seconds Evaluate request latency.\n")
	fmt.Fprintf(w, "# TYPE tileflow_evaluate_latency_seconds summary\n")
	fmt.Fprintf(w, "tileflow_evaluate_latency_seconds{quantile=\"0.5\"} %g\n", qs[0])
	fmt.Fprintf(w, "tileflow_evaluate_latency_seconds{quantile=\"0.99\"} %g\n", qs[1])
	fmt.Fprintf(w, "tileflow_evaluate_latency_seconds_sum %g\n", sum)
	fmt.Fprintf(w, "tileflow_evaluate_latency_seconds_count %d\n", count)
}

// writeSched renders the scheduler, quota, and warm-start library state.
func (m *Metrics) writeSched(w io.Writer, s *Server, js jobs.Stats) {
	ss := s.sched.Stats()
	schedClasses := []sched.Class{sched.Interactive, sched.Batch, sched.Bulk}
	fmt.Fprintf(w, "# HELP tileflow_sched_picks_total Scheduler dequeues, by priority class.\n")
	fmt.Fprintf(w, "# TYPE tileflow_sched_picks_total counter\n")
	for _, c := range schedClasses {
		fmt.Fprintf(w, "tileflow_sched_picks_total{class=%q} %d\n", c, ss.Picks[c])
	}
	fmt.Fprintf(w, "# HELP tileflow_jobs_queue_depth_class Queued jobs, by priority class.\n")
	fmt.Fprintf(w, "# TYPE tileflow_jobs_queue_depth_class gauge\n")
	depth := map[sched.Class]int{}
	for raw, n := range js.QueueDepthByClass {
		depth[sched.ClassOf(raw)] += n
	}
	for _, c := range schedClasses {
		fmt.Fprintf(w, "tileflow_jobs_queue_depth_class{class=%q} %d\n", c, depth[c])
	}
	tenants := make([]string, 0, len(js.QueueDepthByTenant))
	for t := range js.QueueDepthByTenant {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	fmt.Fprintf(w, "# HELP tileflow_jobs_queue_depth_tenant Queued jobs, by tenant.\n")
	fmt.Fprintf(w, "# TYPE tileflow_jobs_queue_depth_tenant gauge\n")
	for _, t := range tenants {
		fmt.Fprintf(w, "tileflow_jobs_queue_depth_tenant{tenant=%q} %d\n", t, js.QueueDepthByTenant[t])
	}
	fmt.Fprintf(w, "# HELP tileflow_sched_quota_deferrals_total Claims declined because every queued job's tenant was at its running quota.\n")
	fmt.Fprintf(w, "# TYPE tileflow_sched_quota_deferrals_total counter\n")
	fmt.Fprintf(w, "tileflow_sched_quota_deferrals_total %d\n", ss.QuotaDeferrals)
	fmt.Fprintf(w, "# HELP tileflow_sched_quota_rejects_total Submissions refused at admission because the tenant was at its active quota.\n")
	fmt.Fprintf(w, "# TYPE tileflow_sched_quota_rejects_total counter\n")
	fmt.Fprintf(w, "tileflow_sched_quota_rejects_total %d\n", ss.QuotaRejects)

	ws := s.warm.Stats()
	fmt.Fprintf(w, "# HELP tileflow_warmstart_entries Structure keys with a stored donor checkpoint.\n")
	fmt.Fprintf(w, "# TYPE tileflow_warmstart_entries gauge\n")
	fmt.Fprintf(w, "tileflow_warmstart_entries %d\n", ws.Entries)
	fmt.Fprintf(w, "# HELP tileflow_warmstart_hits_total Warm-start lookups that found a donor.\n")
	fmt.Fprintf(w, "# TYPE tileflow_warmstart_hits_total counter\n")
	fmt.Fprintf(w, "tileflow_warmstart_hits_total %d\n", ws.Hits)
	fmt.Fprintf(w, "# HELP tileflow_warmstart_misses_total Warm-start lookups that found no donor.\n")
	fmt.Fprintf(w, "# TYPE tileflow_warmstart_misses_total counter\n")
	fmt.Fprintf(w, "tileflow_warmstart_misses_total %d\n", ws.Misses)
	fmt.Fprintf(w, "# HELP tileflow_warmstart_puts_total Donor checkpoints installed (new key or better cycles).\n")
	fmt.Fprintf(w, "# TYPE tileflow_warmstart_puts_total counter\n")
	fmt.Fprintf(w, "tileflow_warmstart_puts_total %d\n", ws.Puts)
}

// writeFleet renders the coordinator-side protocol counters, and — on a
// node running a fleet worker — the per-worker gauges.
func (m *Metrics) writeFleet(w io.Writer, s *Server) {
	cs := s.coord.Stats()
	fmt.Fprintf(w, "# HELP tileflow_fleet_claims_total Job leases granted to workers.\n")
	fmt.Fprintf(w, "# TYPE tileflow_fleet_claims_total counter\n")
	fmt.Fprintf(w, "tileflow_fleet_claims_total %d\n", cs.Claims)
	fmt.Fprintf(w, "# HELP tileflow_fleet_renews_total Lease heartbeats accepted.\n")
	fmt.Fprintf(w, "# TYPE tileflow_fleet_renews_total counter\n")
	fmt.Fprintf(w, "tileflow_fleet_renews_total %d\n", cs.Renews)
	fmt.Fprintf(w, "# HELP tileflow_fleet_stale_rejections_total Writes refused because the sender's fencing token was superseded.\n")
	fmt.Fprintf(w, "# TYPE tileflow_fleet_stale_rejections_total counter\n")
	fmt.Fprintf(w, "tileflow_fleet_stale_rejections_total %d\n", cs.StaleRejections)
	fmt.Fprintf(w, "# HELP tileflow_fleet_checkpoints_total Progress and checkpoint updates committed from workers, including those that rode on a completion.\n")
	fmt.Fprintf(w, "# TYPE tileflow_fleet_checkpoints_total counter\n")
	fmt.Fprintf(w, "tileflow_fleet_checkpoints_total %d\n", cs.Checkpoints)
	fmt.Fprintf(w, "# HELP tileflow_fleet_completes_total Jobs finalized by fleet workers.\n")
	fmt.Fprintf(w, "# TYPE tileflow_fleet_completes_total counter\n")
	fmt.Fprintf(w, "tileflow_fleet_completes_total %d\n", cs.Completes)
	fmt.Fprintf(w, "# HELP tileflow_fleet_releases_total Jobs handed back to the queue by draining workers.\n")
	fmt.Fprintf(w, "# TYPE tileflow_fleet_releases_total counter\n")
	fmt.Fprintf(w, "tileflow_fleet_releases_total %d\n", cs.Releases)
	fmt.Fprintf(w, "# HELP tileflow_fleet_failovers_total Jobs re-queued after their worker's lease expired.\n")
	fmt.Fprintf(w, "# TYPE tileflow_fleet_failovers_total counter\n")
	fmt.Fprintf(w, "tileflow_fleet_failovers_total %d\n", cs.Failovers)
	fmt.Fprintf(w, "# HELP tileflow_fleet_sweep_poisons_total Jobs the lease sweep quarantined after their last allowed failover.\n")
	fmt.Fprintf(w, "# TYPE tileflow_fleet_sweep_poisons_total counter\n")
	fmt.Fprintf(w, "tileflow_fleet_sweep_poisons_total %d\n", cs.SweepPoisons)

	// Per-node presence: the heartbeat-age gauge is what separates an idle
	// worker (recent empty claim polls keep its age small) from a gone one
	// (age grows without bound once it stops polling).
	if nodes := s.coord.Nodes(); len(nodes) > 0 {
		fmt.Fprintf(w, "# HELP tileflow_fleet_node_heartbeat_age_seconds Seconds since this node last contacted the coordinator.\n")
		fmt.Fprintf(w, "# TYPE tileflow_fleet_node_heartbeat_age_seconds gauge\n")
		for _, ni := range nodes {
			fmt.Fprintf(w, "tileflow_fleet_node_heartbeat_age_seconds{node=%q,state=%q} %g\n", ni.Node, ni.State, ni.AgeSeconds)
		}
		fmt.Fprintf(w, "# HELP tileflow_fleet_node_leases_held Leases each known node currently holds.\n")
		fmt.Fprintf(w, "# TYPE tileflow_fleet_node_leases_held gauge\n")
		for _, ni := range nodes {
			fmt.Fprintf(w, "tileflow_fleet_node_leases_held{node=%q} %d\n", ni.Node, ni.LeasesHeld)
		}
	}

	if s.worker == nil {
		return
	}
	ws := s.worker.Stats()
	fmt.Fprintf(w, "# HELP tileflow_fleet_worker_leases Jobs this node currently runs under fleet leases.\n")
	fmt.Fprintf(w, "# TYPE tileflow_fleet_worker_leases gauge\n")
	fmt.Fprintf(w, "tileflow_fleet_worker_leases{node=%q} %d\n", ws.Node, ws.LeasesHeld)
	fmt.Fprintf(w, "# HELP tileflow_fleet_worker_claims_total Jobs this node claimed from the coordinator.\n")
	fmt.Fprintf(w, "# TYPE tileflow_fleet_worker_claims_total counter\n")
	fmt.Fprintf(w, "tileflow_fleet_worker_claims_total{node=%q} %d\n", ws.Node, ws.Claims)
	fmt.Fprintf(w, "# HELP tileflow_fleet_worker_checkpoints_shipped_total Progress and checkpoint updates the coordinator accepted from this node, including those that rode on a completion.\n")
	fmt.Fprintf(w, "# TYPE tileflow_fleet_worker_checkpoints_shipped_total counter\n")
	fmt.Fprintf(w, "tileflow_fleet_worker_checkpoints_shipped_total{node=%q} %d\n", ws.Node, ws.CheckpointsShipped)
	fmt.Fprintf(w, "# HELP tileflow_fleet_worker_renew_latency_seconds Most recent lease renewal round-trip.\n")
	fmt.Fprintf(w, "# TYPE tileflow_fleet_worker_renew_latency_seconds gauge\n")
	fmt.Fprintf(w, "tileflow_fleet_worker_renew_latency_seconds{node=%q} %g\n", ws.Node, ws.RenewLatency.Seconds())
	fmt.Fprintf(w, "# HELP tileflow_fleet_worker_stale_losses_total Jobs this node abandoned after losing their lease.\n")
	fmt.Fprintf(w, "# TYPE tileflow_fleet_worker_stale_losses_total counter\n")
	fmt.Fprintf(w, "tileflow_fleet_worker_stale_losses_total{node=%q} %d\n", ws.Node, ws.StaleLosses)
}
