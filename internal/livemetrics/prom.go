package livemetrics

import (
	"io"
	"sort"
	"strconv"

	"repro/internal/promtext"
)

// WriteProm renders a snapshot in the Prometheus text exposition
// format (version 0.0.4) — the integration surface for fleet
// monitoring, scraped at /metrics.prom. Every metric is prefixed
// loopsched_; quantiles are gauges carrying a quantile label, and the
// retained latency exemplars appear as gauges labelled with their
// trace IDs so an alert on the p99 series links straight to a span
// tree.
func WriteProm(w io.Writer, s Snapshot) error {
	pw := promtext.NewWriter(w)
	pw.Counter("loopsched_submissions_total", "Submissions observed since the plane started.", s.Counters.Submissions)
	pw.Counter("loopsched_submissions_completed_total", "Submissions that ran to completion.", s.Counters.Completed)
	pw.Counter("loopsched_submissions_cancelled_total", "Submissions stopped by their context.", s.Counters.Cancellations)
	pw.Counter("loopsched_submissions_panicked_total", "Submissions whose loop body panicked.", s.Counters.Panics)
	pw.Counter("loopsched_chunks_total", "Chunks executed across all workers.", s.Counters.Chunks)
	pw.Counter("loopsched_steals_total", "Successful steal operations.", s.Counters.Steals)
	pw.Counter("loopsched_migrated_iters_total", "Iterations moved by steals.", s.Counters.MigratedIters)
	pw.Counter("loopsched_flight_dropped_events_total", "Flight-recorder event evictions.", s.FlightDroppedEvents)
	pw.Counter("loopsched_flight_dropped_prov_total", "Flight-recorder provenance evictions.", s.FlightDroppedProv)

	pw.Family("loopsched_uptime_seconds", "gauge", "Seconds since the plane started.")
	pw.Float("loopsched_uptime_seconds", s.UptimeSeconds)

	quant := func(name, help string, q Quantiles) {
		pw.Quantiles(name, help, "Observations in the rolling window.", q.Count, q.P50, q.P90, q.P99)
	}
	quant("loopsched_submission_latency_ns", "Rolling submission wall latency (ns).", s.Submission)
	quant("loopsched_chunk_latency_ns", "Rolling chunk execution latency (ns).", s.Chunk)
	quant("loopsched_steal_latency_ns", "Rolling steal latency (ns).", s.Steal)

	pw.Family("loopsched_worker_chunks_total", "counter", "Chunks executed by the worker.")
	for _, ws := range s.Workers {
		pw.Int("loopsched_worker_chunks_total", ws.Chunks, "worker", strconv.Itoa(ws.Worker))
	}
	pw.Family("loopsched_worker_affinity_hit_ratio", "gauge", "Un-stolen chunks run on their static owner / all chunks.")
	for _, ws := range s.Workers {
		pw.Float("loopsched_worker_affinity_hit_ratio", ws.AffinityHitRatio, "worker", strconv.Itoa(ws.Worker))
	}
	pw.Family("loopsched_worker_utilization", "gauge", "Busy-time fraction over the last sample interval.")
	for _, ws := range s.Workers {
		pw.Float("loopsched_worker_utilization", ws.Utilization, "worker", strconv.Itoa(ws.Worker))
	}
	pw.Family("loopsched_worker_queue_depth", "gauge", "Queued iterations in the worker's queue.")
	for _, ws := range s.Workers {
		pw.Int("loopsched_worker_queue_depth", int64(ws.QueueDepth), "worker", strconv.Itoa(ws.Worker))
	}

	if a := s.Admission; a != nil {
		pw.Counter("loopsched_admission_admitted_total", "Jobs admitted by the serving layer.", a.Admitted)
		pw.Counter("loopsched_admission_shed_total", "Jobs shed by quota or queue overload (HTTP 429).", a.Shed)
		pw.Counter("loopsched_admission_rejected_total", "Jobs rejected as invalid or unservable.", a.Rejected)
		quant("loopsched_admission_wait_ns", "Rolling admission queue wait of admitted jobs (ns).", a.Wait)

		tenantCounter := func(name, help string, v func(TenantSnapshot) int64) {
			pw.Family(name, "counter", help)
			for _, ts := range a.Tenants {
				pw.Int(name, v(ts), "tenant", ts.Tenant)
			}
		}
		tenantCounter("loopsched_tenant_submitted_total", "Jobs submitted by the tenant.",
			func(ts TenantSnapshot) int64 { return ts.Submitted })
		tenantCounter("loopsched_tenant_admitted_total", "Tenant jobs admitted.",
			func(ts TenantSnapshot) int64 { return ts.Admitted })
		tenantCounter("loopsched_tenant_shed_total", "Tenant jobs shed by overload protection.",
			func(ts TenantSnapshot) int64 { return ts.Shed })
		tenantCounter("loopsched_tenant_rejected_total", "Tenant jobs rejected as invalid.",
			func(ts TenantSnapshot) int64 { return ts.Rejected })
		tenantCounter("loopsched_tenant_completed_total", "Tenant jobs that finished executing (goodput).",
			func(ts TenantSnapshot) int64 { return ts.Completed })
	}

	if len(s.SubmissionExemplars) > 0 {
		const name = "loopsched_submission_exemplar_latency_ns"
		pw.Family(name, "gauge", "Retained traced submissions, slowest first; trace_id resolves via /trace?id= or loopdoctor trace.")
		// The exposition format forbids duplicate label sets; exemplars
		// are unique by trace ID, but guard anyway in case one trace is
		// retained in two buckets after a histogram reconfiguration.
		seen := make(map[uint64]bool, len(s.SubmissionExemplars))
		ordered := append([]Exemplar(nil), s.SubmissionExemplars...)
		sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].LatencyNS > ordered[j].LatencyNS })
		for i, e := range ordered {
			if seen[e.TraceID] {
				continue
			}
			seen[e.TraceID] = true
			pw.Float(name, e.LatencyNS, "trace_id", strconv.FormatUint(e.TraceID, 10), "rank", strconv.Itoa(i))
		}
	}
	return pw.Err()
}
