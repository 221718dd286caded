package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// handleReadyz adds fleet health to the front end's readiness: 503
// while no worker is ready, so load balancers stop routing submissions
// at a coordinator that could only queue them into failure; otherwise
// the serve.Server answers (503 once draining).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.res.reg.ReadyCount() == 0 {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "no ready workers")
		return
	}
	s.srv.Handler().ServeHTTP(w, r)
}

// handleWorkers reports the registry's view of the fleet.
func (s *Server) handleWorkers(w http.ResponseWriter, r *http.Request) {
	infos := s.res.reg.Infos()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(struct {
		Workers []WorkerInfo `json:"workers"`
	}{infos})
}

// handleMetrics writes the front end's delrepfleet_* series (queue,
// jobs, admission, engine and latency, as on delrepd) followed by the
// resolver's: dispatch/failover/steal counters, the cache-tier probe
// accounting, and per-worker health.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.srv.Handler().ServeHTTP(w, r)
	infos := s.res.reg.Infos()
	ready := 0
	for _, wi := range infos {
		if wi.Ready {
			ready++
		}
	}
	fmt.Fprintf(w, "# TYPE delrepfleet_workers_ready gauge\ndelrepfleet_workers_ready %d\n", ready)
	fmt.Fprintf(w, "# TYPE delrepfleet_dispatch_total counter\ndelrepfleet_dispatch_total %d\n", s.res.nDispatch.Load())
	fmt.Fprintf(w, "# TYPE delrepfleet_retries_total counter\ndelrepfleet_retries_total %d\n", s.res.nRetry.Load())
	fmt.Fprintf(w, "# TYPE delrepfleet_steals_total counter\ndelrepfleet_steals_total %d\n", s.res.nSteal.Load())
	fmt.Fprintf(w, "# TYPE delrepfleet_cache_probes_total counter\n")
	fmt.Fprintf(w, "delrepfleet_cache_probes_total{result=\"hit\"} %d\n", s.res.nProbeHit.Load())
	fmt.Fprintf(w, "delrepfleet_cache_probes_total{result=\"miss\"} %d\n", s.res.nProbeMiss.Load())

	fmt.Fprintf(w, "# TYPE delrepfleet_worker_up gauge\n")
	for _, wi := range infos {
		up := 0
		if wi.Ready {
			up = 1
		}
		fmt.Fprintf(w, "delrepfleet_worker_up{worker=%q} %d\n", wi.URL, up)
	}
	fmt.Fprintf(w, "# TYPE delrepfleet_worker_outstanding gauge\n")
	for _, wi := range infos {
		fmt.Fprintf(w, "delrepfleet_worker_outstanding{worker=%q} %d\n", wi.URL, wi.Outstanding)
	}
	fmt.Fprintf(w, "# TYPE delrepfleet_worker_slots gauge\n")
	for _, wi := range infos {
		fmt.Fprintf(w, "delrepfleet_worker_slots{worker=%q} %d\n", wi.URL, wi.Slots)
	}
}
