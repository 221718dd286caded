package serve

import (
	"context"
	"fmt"
	"log/slog"
	"time"

	"delrep/internal/config"
	"delrep/internal/runner"
	"delrep/internal/simspec"
	"delrep/internal/telemetry"
)

// Status is a job's lifecycle state. Transitions are monotonic:
// queued → running → {done, failed, cancelled}, with queued →
// cancelled allowed for jobs cancelled (or drained at shutdown) before
// a worker picked them up.
type Status string

const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// Priority orders jobs in the queue: all queued high-priority jobs
// dispatch before any normal one, and so on. Within a priority level
// dispatch is strictly FIFO.
type Priority int

const (
	PrioLow Priority = iota
	PrioNormal
	PrioHigh
	numPriorities
)

// ParsePriority parses a job priority ("" defaults to normal).
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "", "normal":
		return PrioNormal, nil
	case "low":
		return PrioLow, nil
	case "high":
		return PrioHigh, nil
	}
	return 0, fmt.Errorf("unknown priority %q (want low, normal, or high)", s)
}

func (p Priority) String() string {
	switch p {
	case PrioLow:
		return "low"
	case PrioHigh:
		return "high"
	}
	return "normal"
}

// Job is one submitted simulation. Identity fields are immutable after
// creation; mutable state is guarded by the owning Server's mutex.
type Job struct {
	id      string
	client  string
	prio    Priority
	spec    simspec.Spec // canonical form, echoed back to clients
	cfg     config.Config
	specKey string // short content hash of the resolved spec
	// reqParallel is the intra-run parallelism the submitted spec asked
	// for. Resolve strips it from the canonical spec (it is an
	// execution hint, not identity), so it is carried here verbatim and
	// clamped against the server's cap and load at dispatch.
	reqParallel int
	ctx         context.Context
	cancel      context.CancelFunc
	// doneCh closes when the job reaches a terminal status.
	doneCh chan struct{}
	// log carries the job's identity attrs (job/client/spec-key) on
	// every record. Immutable after creation.
	log *slog.Logger
	// trace is the job's telemetry span tree; nil when telemetry is
	// off. The Trace itself is safe for concurrent use.
	trace *telemetry.Trace

	// Guarded by Server.mu.
	status    Status
	errMsg    string
	created   time.Time
	started   time.Time
	finished  time.Time
	fut       *runner.Future
	run       runner.Run
	parallel  int // effective tile workers, fixed at dispatch
	subs      map[chan sseEvent]struct{}
	spanQueue *telemetry.Span // open queue.wait span, ended at dispatch
}

// ProgressView is the running-job progress fragment of a job view.
// Exported because it is wire format: the fleet resolver
// (internal/fleet) decodes a worker's progress events with it.
type ProgressView struct {
	CyclesDone  int64 `json:"cycles_done"`
	CyclesTotal int64 `json:"cycles_total"`
}

// JobView is the JSON rendering of a job returned by the API. It is
// the shared wire form of the /v1/jobs surface: delrepd and the fleet
// coordinator (a Server over a ring-resolving engine) serve it, and
// fleet clients and the fleet resolver decode it.
type JobView struct {
	ID       string       `json:"id"`
	Status   Status       `json:"status"`
	Priority string       `json:"priority"`
	Client   string       `json:"client,omitempty"`
	Spec     simspec.Spec `json:"spec"`
	Created  string       `json:"created"`
	Started  string       `json:"started,omitempty"`
	Finished string       `json:"finished,omitempty"`
	Source   string       `json:"source,omitempty"`
	Error    string       `json:"error,omitempty"`
	Parallel int          `json:"parallel,omitempty"` // server-granted intra-run workers (omitted when serial)
	// Workers is the engine-effective worker count the simulation
	// actually ticked with: Parallel after the core engine clamps it
	// to what the topology can use (runner.Run.Workers). It lives
	// here, not in Result — the canonical Result JSON must stay
	// byte-identical across worker counts. Omitted for memo/disk
	// hits, which ran elsewhere.
	Workers  int             `json:"workers,omitempty"`
	Progress *ProgressView   `json:"progress,omitempty"`
	Result   *simspec.Result `json:"result,omitempty"`
	// Worker is the base URL of the worker daemon that served the job
	// (runner.Run.Worker), set once the job is terminal. Only a fleet
	// coordinator sets it; a single delrepd leaves it empty (it is its
	// own worker).
	Worker string `json:"worker,omitempty"`
}

// viewLocked renders the job; the server's mutex must be held.
func (j *Job) viewLocked() JobView {
	v := JobView{
		ID:       j.id,
		Status:   j.status,
		Priority: j.prio.String(),
		Client:   j.client,
		Spec:     j.spec,
		Created:  j.created.UTC().Format(time.RFC3339Nano),
		Error:    j.errMsg,
		Worker:   j.run.Worker,
	}
	if !j.started.IsZero() {
		v.Started = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		v.Finished = j.finished.UTC().Format(time.RFC3339Nano)
	}
	if j.parallel > 1 {
		v.Parallel = j.parallel
	}
	if j.status == StatusRunning && j.fut != nil {
		done, total := j.fut.Progress()
		v.Progress = &ProgressView{CyclesDone: done, CyclesTotal: total}
	}
	if j.status == StatusDone {
		v.Source = j.run.Source.String()
		v.Workers = j.run.Workers
		r := simspec.NewResult(j.spec, j.run.Results, j.run.Digest)
		v.Result = &r
	}
	return v
}
