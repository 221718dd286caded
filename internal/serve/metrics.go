package serve

import (
	"fmt"
	"net/http"
	"strings"

	"delrep/internal/stats"
)

// handleHealthz is liveness: the process is up and serving HTTP.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is readiness: 200 while accepting jobs, 503 once
// draining so load balancers stop routing new submissions here.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if draining {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

// handleMetrics writes the daemon's state in the Prometheus text
// exposition format: queue and worker gauges, terminal-outcome and
// admission-rejection counters, the engine's cache accounting, and the
// job latency histogram. Every series is named after the daemon
// (s.name), so a fleet coordinator's page never collides with its
// workers'.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	c := s.eng.Snapshot()
	cacheStats := s.eng.DiskCache().Stats()
	p := s.name

	s.mu.Lock()
	var b strings.Builder
	gauge := func(name string, v any) {
		fmt.Fprintf(&b, "# TYPE %s_%s gauge\n%s_%s %v\n", p, name, p, name, v)
	}
	gauge("jobs_queued", s.queuedCount)
	gauge("jobs_running", s.runningCount)
	gauge("workers", s.workers)
	gauge("worker_utilization", float64(s.runningCount)/float64(s.workers))
	gauge("sse_subscribers", s.sseSubs)

	fmt.Fprintf(&b, "# TYPE %s_jobs_total counter\n", p)
	for _, st := range []Status{StatusDone, StatusFailed, StatusCancelled} {
		fmt.Fprintf(&b, "%s_jobs_total{status=%q} %d\n", p, st, s.statusCounts[st])
	}
	fmt.Fprintf(&b, "# TYPE %s_rejects_total counter\n", p)
	for _, reason := range []string{"queue_full", "client_cap", "draining"} {
		fmt.Fprintf(&b, "%s_rejects_total{reason=%q} %d\n", p, reason, s.rejects[reason])
	}

	fmt.Fprintf(&b, "# TYPE %s_engine_runs_total counter\n", p)
	fmt.Fprintf(&b, "%s_engine_runs_total{source=\"executed\"} %d\n", p, c.Executed)
	fmt.Fprintf(&b, "%s_engine_runs_total{source=\"memo\"} %d\n", p, c.MemoHits)
	fmt.Fprintf(&b, "%s_engine_runs_total{source=\"disk\"} %d\n", p, c.DiskHits)
	fmt.Fprintf(&b, "%s_engine_runs_total{source=\"failed\"} %d\n", p, c.Failed)
	// Hit ratio over resolved submissions: memo and disk hits per
	// submission that produced a result.
	hitRatio := 0.0
	if resolved := c.Executed + c.MemoHits + c.DiskHits; resolved > 0 {
		hitRatio = float64(c.MemoHits+c.DiskHits) / float64(resolved)
	}
	gauge("cache_hit_ratio", hitRatio)
	fmt.Fprintf(&b, "# TYPE %s_disk_cache_total counter\n", p)
	fmt.Fprintf(&b, "%s_disk_cache_total{result=\"hit\"} %d\n", p, cacheStats.Hits)
	fmt.Fprintf(&b, "%s_disk_cache_total{result=\"miss\"} %d\n", p, cacheStats.Misses)
	fmt.Fprintf(&b, "%s_disk_cache_total{result=\"corrupt\"} %d\n", p, cacheStats.Corrupt)

	err := s.latency.WriteProm(&b, p+"_job_seconds")
	for _, fam := range []struct {
		name  string
		hists *[numPriorities]*stats.Histogram
	}{
		{p + "_job_queue_seconds", &s.queueWait},
		{p + "_job_exec_seconds", &s.execTime},
		{p + "_job_total_seconds", &s.totalTime},
	} {
		if err != nil {
			break
		}
		fmt.Fprintf(&b, "# TYPE %s histogram\n", fam.name)
		for p := Priority(0); p < numPriorities && err == nil; p++ {
			err = fam.hists[p].WritePromLabeled(&b, fam.name, fmt.Sprintf("priority=%q", p))
		}
	}
	s.mu.Unlock()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "rendering metrics: %v", err)
		return
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, b.String())
}
