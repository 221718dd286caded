package serve

import (
	"html/template"
	"net/http"
	"time"

	"delrep/internal/telemetry"
)

// handleDebugJobs dumps the flight recorder: summaries (with span
// trees) of the last N completed jobs, newest first. 404 when
// telemetry is off.
func (s *Server) handleDebugJobs(w http.ResponseWriter, r *http.Request) {
	if s.flight == nil {
		writeError(w, http.StatusNotFound, "telemetry is disabled; start the daemon with -telemetry")
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Total    int64                 `json:"total"`
		Capacity int                   `json:"capacity"`
		Jobs     []telemetry.JobRecord `json:"jobs"`
	}{s.flight.Total(), s.flight.Cap(), s.flight.Snapshot()})
}

// statusPage is the data fed to the /debug/status template.
type statusPage struct {
	Name         string
	Uptime       string
	Workers      int
	Queued       int
	Running      int
	Draining     bool
	SSESubs      int
	Done         int64
	Failed       int64
	Cancelled    int64
	CacheHits    int64
	CacheMisses  int64
	CacheCorrupt int64
	Recent       []telemetry.JobRecord
}

var statusTmpl = template.Must(template.New("status").Funcs(template.FuncMap{
	"seconds": func(us int64) float64 { return float64(us) / 1e6 },
}).Parse(`<!DOCTYPE html>
<html><head><title>{{.Name}} status</title>
<style>
body { font-family: sans-serif; margin: 2em; }
table { border-collapse: collapse; margin-top: 0.5em; }
th, td { border: 1px solid #ccc; padding: 0.3em 0.7em; text-align: left; }
th { background: #f0f0f0; }
.gauges span { margin-right: 2em; }
</style></head>
<body>
<h1>{{.Name}}</h1>
<p class="gauges">
<span>uptime <b>{{.Uptime}}</b></span>
<span>workers <b>{{.Workers}}</b></span>
<span>queued <b>{{.Queued}}</b></span>
<span>running <b>{{.Running}}</b></span>
<span>sse subscribers <b>{{.SSESubs}}</b></span>
{{if .Draining}}<span><b>DRAINING</b></span>{{end}}
</p>
<p class="gauges">
<span>done <b>{{.Done}}</b></span>
<span>failed <b>{{.Failed}}</b></span>
<span>cancelled <b>{{.Cancelled}}</b></span>
<span>disk cache hit/miss/corrupt <b>{{.CacheHits}}/{{.CacheMisses}}/{{.CacheCorrupt}}</b></span>
</p>
{{if .Recent}}
<h2>recent jobs</h2>
<table>
<tr><th>id</th><th>client</th><th>prio</th><th>spec</th><th>outcome</th><th>source</th><th>queue</th><th>exec</th><th>total</th><th>trace</th></tr>
{{range .Recent}}
<tr>
<td>{{.ID}}</td><td>{{.Client}}</td><td>{{.Priority}}</td><td>{{.Spec}}</td>
<td>{{.Outcome}}</td><td>{{.Source}}</td>
<td>{{printf "%.3fs" (seconds .QueueUS)}}</td>
<td>{{printf "%.3fs" (seconds .ExecUS)}}</td>
<td>{{printf "%.3fs" (seconds .TotalUS)}}</td>
<td><a href="/v1/jobs/{{.ID}}/trace">chrome</a> <a href="/v1/jobs/{{.ID}}/trace?format=tree">tree</a></td>
</tr>
{{end}}
</table>
{{else}}
<p>no recent jobs (the flight recorder fills once telemetry-enabled jobs complete)</p>
{{end}}
</body></html>
`))

// handleDebugStatus renders a human-oriented HTML snapshot of the
// daemon: gauges, terminal counters, cache accounting, and the flight
// recorder's recent jobs with links to their traces.
func (s *Server) handleDebugStatus(w http.ResponseWriter, r *http.Request) {
	cacheStats := s.eng.DiskCache().Stats()
	s.mu.Lock()
	page := statusPage{
		Name:         s.name,
		Uptime:       time.Since(s.started).Round(time.Second).String(),
		Workers:      s.workers,
		Queued:       s.queuedCount,
		Running:      s.runningCount,
		Draining:     s.draining,
		SSESubs:      s.sseSubs,
		Done:         s.statusCounts[StatusDone],
		Failed:       s.statusCounts[StatusFailed],
		Cancelled:    s.statusCounts[StatusCancelled],
		CacheHits:    cacheStats.Hits,
		CacheMisses:  cacheStats.Misses,
		CacheCorrupt: cacheStats.Corrupt,
	}
	s.mu.Unlock()
	page.Recent = s.flight.Snapshot()
	if len(page.Recent) > 20 {
		page.Recent = page.Recent[:20]
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := statusTmpl.Execute(w, page); err != nil {
		s.logger.WarnContext(r.Context(), "status page render failed", "error", err)
	}
}
