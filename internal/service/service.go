package service

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"regmutex/internal/asm"
	"regmutex/internal/core"
	"regmutex/internal/harness"
	"regmutex/internal/isa"
	"regmutex/internal/jsonl"
	"regmutex/internal/obs"
	"regmutex/internal/occupancy"
	"regmutex/internal/runpool"
	"regmutex/internal/sim"
	"regmutex/internal/workloads"
)

// Config tunes one Service instance. Zero values pick sane defaults.
type Config struct {
	// Workers is the number of executor goroutines pulling jobs off the
	// queue (default 2). Each job additionally fans its policies out
	// through the shared simulation pool.
	Workers int
	// PoolWorkers sizes the simulation pool (0 = all cores).
	PoolWorkers int
	// QueueDepth bounds the number of queued (not yet running) jobs;
	// beyond it submissions are refused with 429 queue_full. Default 64.
	QueueDepth int
	// MemoLimit caps the pool's memo cache entries (LRU eviction);
	// 0 means unbounded. Default 256.
	MemoLimit int
	// RatePerSec and Burst configure per-client admission rate limiting;
	// RatePerSec <= 0 disables it.
	RatePerSec float64
	Burst      int
	// Par is each simulation's intra-run parallelism (harness
	// RunSpec.Par / sim.WithParallelism): 0 = GOMAXPROCS, 1 = serial.
	// Results are byte-identical at every value, so jobs submitted to
	// differently-configured daemons still dedup against each other's
	// journals and memo keys.
	Par int
	// JournalPath enables crash-safe job persistence ("" = off):
	// accepted-but-unfinished jobs are re-queued on restart.
	JournalPath string
	// JournalNoSync skips the per-append fsync. Throughput-friendly for
	// fleet members fronted by a router (the router's own journal replays
	// jobs an instance loses to a crash); the default false keeps every
	// accepted job durable before the 202 goes out.
	JournalNoSync bool
	// Logger receives structured job-lifecycle logs (accept, finish,
	// drain) with job IDs for correlation. Nil discards them.
	Logger *slog.Logger
	// SpanCap bounds the lifecycle-span ring the tracing layer keeps
	// (accept/queue/run/stream spans served by GET /v1/spans); 0 picks
	// obs.DefaultSpanCap. The ring is always on — recording is one
	// mutex'd write per stage.
	SpanCap int
	// SpanProc names this process's lane in merged fleet traces
	// (default "gpusimd"). Fleet boots give each instance a distinct
	// name so Perfetto shows one process row per instance.
	SpanProc string
	// OnAccept observes every freshly accepted submission (after
	// admission control, before execution) — the trace-record hook:
	// gpusimd -record wires a workspec.TraceWriter here so production
	// traffic can be captured and replayed. Journal-replayed jobs are
	// not re-observed (they were recorded when first accepted). Must be
	// fast and must not block; nil disables it.
	OnAccept func(req SubmitRequest)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.MemoLimit == 0 {
		c.MemoLimit = 256
	}
	if c.SpanProc == "" {
		c.SpanProc = "gpusimd"
	}
	return c
}

// Service is the gpusimd core: admission control in Submit, executor
// goroutines draining the priority queue, and the shared runpool whose
// keyed memo cache single-flights identical simulations across jobs.
type Service struct {
	cfg     Config
	pool    *runpool.Pool
	queue   *jobQueue
	limiter *rateLimiter
	journal *jsonl.Log[journalRecord]
	metrics *obs.Registry
	spans   *obs.SpanRecorder

	ctx    context.Context // root: canceled by Close, kills running sims
	cancel context.CancelFunc

	mu     sync.Mutex
	jobs   map[string]*Job
	nextID int64

	draining atomic.Bool
	wg       sync.WaitGroup
	started  bool
}

// New builds a Service and replays the journal (if configured): jobs
// that were accepted but never finished — crash or shutdown victims —
// are re-queued. Executors don't run until Start, so tests can inspect
// the replayed queue deterministically.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	jlog := cfg.Logger
	if jlog == nil {
		jlog = obs.NopLogger()
	}
	jn, records, torn, err := jsonl.Open[journalRecord](cfg.JournalPath, !cfg.JournalNoSync)
	if err != nil {
		return nil, fmt.Errorf("journal %w", err)
	}
	if torn > 0 {
		jlog.Warn("journal: dropped torn final record (crash mid-append)",
			"subsystem", "journal", "path", cfg.JournalPath, "line", torn)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:     cfg,
		pool:    runpool.NewBounded(cfg.PoolWorkers, cfg.MemoLimit),
		queue:   newJobQueue(cfg.QueueDepth),
		limiter: newRateLimiter(cfg.RatePerSec, cfg.Burst),
		journal: jn,
		metrics: obs.NewRegistry(),
		spans:   obs.NewSpanRecorder(cfg.SpanCap, cfg.SpanProc),
		ctx:     ctx,
		cancel:  cancel,
		jobs:    make(map[string]*Job),
	}
	// Pre-register the admission/lifecycle series so the first scrape
	// already exposes the full shape, zero-valued.
	for _, name := range []string{
		"service.jobs_accepted", "service.jobs_done", "service.jobs_failed",
		"service.jobs_canceled", "service.jobs_coalesced", "service.jobs_replayed",
		"service.rejected_rate_limited", "service.rejected_queue_full",
		"service.rejected_draining", "service.rejected_invalid",
	} {
		s.metrics.Counter(name)
	}
	for _, name := range []string{
		"job.queue_wait_seconds", "job.run_seconds", "job.e2e_seconds",
	} {
		s.metrics.Histogram(name)
	}
	s.metrics.Gauge("service.queue_depth")
	s.metrics.Gauge("service.queue_oldest_age_seconds")
	s.metrics.Gauge("service.memo_hit_rate")
	// Fresh IDs start past every journaled one: a reused ID would let an
	// old finish record shadow the new job's accept on the next replay.
	for _, rec := range records {
		var n int64
		if _, err := fmt.Sscanf(rec.ID, "j%d", &n); err == nil && n > s.nextID {
			s.nextID = n
		}
	}
	for _, rec := range pendingJobs(records) {
		j := s.track(rec.ID, *rec.Req)
		if !s.queue.push(j) {
			// Replay overflow: more pending jobs than the queue holds.
			// Fail loudly rather than silently dropping accepted work.
			j.setState(StateFailed, &ErrorBody{Code: CodeInternal,
				Message: "journal replay overflowed the queue"}, nil)
			s.finishRecord(j)
			continue
		}
		s.metrics.Counter("service.jobs_replayed").Inc()
	}
	return s, nil
}

// Start launches the executor goroutines. Idempotent.
func (s *Service) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	s.started = true
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				j, ok := s.queue.pop()
				if !ok {
					return
				}
				s.execute(j)
			}
		}()
	}
}

// track registers a job under an explicit ID (journal replay).
func (s *Service) track(id string, req SubmitRequest) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	j := newJob(id, req, s.nextID)
	s.jobs[id] = j
	return j
}

// Submit validates and admits one request. The returned ErrorBody is nil
// on success; its Code tells the HTTP layer which status to send.
func (s *Service) Submit(req SubmitRequest) (*Job, *ErrorBody) {
	if s.draining.Load() {
		s.metrics.Counter("service.rejected_draining").Inc()
		return nil, &ErrorBody{Code: CodeDraining, RetryAfterSec: 10,
			Message: "server is draining; retry against a fresh instance"}
	}
	if ok, retry := s.limiter.allow(req.Client); !ok {
		s.metrics.Counter("service.rejected_rate_limited").Inc()
		return nil, &ErrorBody{Code: CodeRateLimited,
			RetryAfterSec: int(retry / time.Second),
			Message:       fmt.Sprintf("client %q over rate limit", req.Client)}
	}
	if body := s.validate(&req); body != nil {
		s.metrics.Counter("service.rejected_invalid").Inc()
		return nil, body
	}

	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("j%06d", s.nextID)
	j := newJob(id, req, s.nextID)
	s.jobs[id] = j
	s.mu.Unlock()

	if err := s.journal.Append(journalRecord{Op: "accept", ID: id, Req: &req}); err != nil {
		s.forget(id)
		return nil, &ErrorBody{Code: CodeInternal, Message: "journal: " + err.Error()}
	}
	if !s.queue.push(j) {
		s.metrics.Counter("service.rejected_queue_full").Inc()
		s.forget(id)
		s.finishRecord(j) // balance the accept record
		return nil, &ErrorBody{Code: CodeQueueFull, RetryAfterSec: 1,
			Message: fmt.Sprintf("queue full (%d jobs waiting)", s.queue.len())}
	}
	s.metrics.Counter("service.jobs_accepted").Inc()
	s.metrics.Gauge("service.queue_depth").Set(float64(s.queue.len()))
	if s.cfg.OnAccept != nil {
		s.cfg.OnAccept(req)
	}
	return j, nil
}

// logger returns the configured lifecycle logger (never nil).
func (s *Service) logger() *slog.Logger {
	if s.cfg.Logger == nil {
		return obs.NopLogger()
	}
	return s.cfg.Logger
}

func (s *Service) forget(id string) {
	s.mu.Lock()
	delete(s.jobs, id)
	s.mu.Unlock()
}

// validate rejects malformed requests before they consume a queue slot.
// Kasm sources are assembled, structurally validated, and linted here so
// a bad kernel costs the client one 4xx, not a simulation.
func (s *Service) validate(req *SubmitRequest) *ErrorBody {
	kind := req.Kind
	if kind == "" {
		if req.Experiment != "" {
			kind = "experiment"
		} else {
			kind = "run"
		}
	}
	switch kind {
	case "experiment":
		if !harness.IsExperiment(req.Experiment) {
			return &ErrorBody{Code: CodeUnknownExperiment,
				Message: (&harness.NotFoundError{Kind: "experiment", Name: req.Experiment,
					Valid: harness.ExperimentNames()}).Error()}
		}
		return nil
	case "run":
		if (req.Workload == "") == (req.Kasm == "") {
			return &ErrorBody{Code: CodeBadRequest,
				Message: "run jobs need exactly one of workload or kasm"}
		}
		if req.Workload != "" {
			if _, err := workloads.ByName(req.Workload); err != nil {
				return &ErrorBody{Code: CodeUnknownWorkload,
					Message: (&harness.NotFoundError{Kind: "workload", Name: req.Workload,
						Valid: workloads.Names()}).Error()}
			}
		} else {
			if _, body := assembleKasm(req.Kasm, req.AllowLint); body != nil {
				return body
			}
		}
		for _, p := range resolvePolicies(req) {
			if !knownPolicy(p) {
				return &ErrorBody{Code: CodeUnknownPolicy,
					Message: (&harness.NotFoundError{Kind: "policy", Name: p,
						Valid: harness.PolicyNames}).Error()}
			}
		}
		return nil
	default:
		return &ErrorBody{Code: CodeBadRequest, Message: fmt.Sprintf("unknown kind %q", kind)}
	}
}

// assembleKasm parses, validates, and lints submitted assembly.
func assembleKasm(src string, allowLint bool) (*isa.Kernel, *ErrorBody) {
	k, err := asm.Parse(src)
	if err != nil {
		return nil, &ErrorBody{Code: CodeParseError, Message: err.Error()}
	}
	if err := k.Validate(); err != nil {
		return nil, &ErrorBody{Code: CodeBadRequest, Message: err.Error()}
	}
	issues, err := core.Lint(k)
	if err != nil {
		return nil, &ErrorBody{Code: CodeBadRequest, Message: err.Error()}
	}
	if len(issues) > 0 && !allowLint {
		msgs := make([]string, len(issues))
		for i, is := range issues {
			msgs[i] = is.String()
		}
		return nil, &ErrorBody{Code: CodeLintRejected,
			Message: "kernel rejected by lint (resubmit with allow_lint to run anyway): " +
				strings.Join(msgs, "; ")}
	}
	return k, nil
}

func knownPolicy(name string) bool {
	for _, p := range harness.PolicyNames {
		if p == name {
			return true
		}
	}
	return false
}

func resolvePolicies(req *SubmitRequest) []string {
	if len(req.Policies) > 0 {
		return req.Policies
	}
	if req.Policy != "" && req.Policy != "all" {
		return []string{req.Policy}
	}
	return harness.PolicyNames
}

// Job looks a job up by ID.
func (s *Service) Job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Jobs snapshots every tracked job's view.
func (s *Service) Jobs() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j.View())
	}
	return out
}

// Cancel withdraws a job. A queued job flips straight to canceled; a
// running job has its context canceled, which releases its simulations
// within one context-poll stride — well inside a watchdog epoch — unless
// another live job shares them through the single-flight cache (then the
// shared run keeps going for the survivor and only this job detaches).
func (s *Service) Cancel(id string) (*Job, bool) {
	j := s.Job(id)
	if j == nil {
		return nil, false
	}
	j.mu.Lock()
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel() // executor observes the cancellation and finishes the job
	} else if j.setState(StateCanceled, &ErrorBody{Code: CodeCanceled, Message: "canceled while queued"}, nil) {
		s.metrics.Counter("service.jobs_canceled").Inc()
		s.finishRecord(j)
	}
	return j, true
}

// finishRecord journals a job's terminal state and closes out its
// telemetry: lifecycle spans into the queue-wait/run/e2e histograms and
// one structured finish log with the measured durations.
func (s *Service) finishRecord(j *Job) {
	if err := s.journal.Append(journalRecord{Op: "finish", ID: j.ID, End: j.State()}); err != nil {
		// The job re-runs on the next start; say why.
		s.logger().Warn("journal: finish record lost", "subsystem", "journal",
			"path", s.cfg.JournalPath, "job", j.ID, "err", err)
	}
	queueWait, run, e2e := j.spans()
	if e2e <= 0 {
		return // rollback of a never-admitted job: nothing to measure
	}
	// Histogram observations and trace spans use the job's OWN anchors:
	// a follower coalesced onto a leader's in-flight simulation still
	// waited from its own acceptedAt, so memo-heavy load doesn't skew
	// the queue-wait distribution with the leader's timeline.
	s.metrics.Histogram("job.queue_wait_seconds").Observe(queueWait.Seconds())
	s.metrics.Histogram("job.run_seconds").Observe(run.Seconds())
	s.metrics.Histogram("job.e2e_seconds").Observe(e2e.Seconds())
	accepted, started, finished := j.spanTimes()
	queueEnd := started
	if started.IsZero() {
		queueEnd = finished // canceled while queued: wait ends at the terminal transition
	}
	s.recordSpan(j, obs.StageQueue, accepted, queueEnd, "")
	if !started.IsZero() {
		s.recordSpan(j, obs.StageRun, started, finished, j.State())
	}
	s.logger().Info("job finished",
		"subsystem", "service", "job", j.ID, "kind", j.Kind, "state", j.State(),
		"queue_wait_us", queueWait.Microseconds(),
		"run_us", run.Microseconds(),
		"e2e_us", e2e.Microseconds())
}

// RefreshGauges recomputes the scrape-time gauges that have no natural
// update event: queue depth, the age of the oldest still-queued job,
// and the pool's lifetime memo hit rate. The /metrics handler calls it
// before every snapshot.
func (s *Service) RefreshGauges() {
	s.metrics.Gauge("service.queue_depth").Set(float64(s.queue.len()))
	now := time.Now()
	var oldest time.Duration
	s.mu.Lock()
	for _, j := range s.jobs {
		if j.State() == StateQueued {
			if age := j.age(now); age > oldest {
				oldest = age
			}
		}
	}
	s.mu.Unlock()
	s.metrics.Gauge("service.queue_oldest_age_seconds").Set(oldest.Seconds())
	hits, misses := s.pool.CacheStats()
	if total := hits + misses; total > 0 {
		s.metrics.Gauge("service.memo_hit_rate").Set(float64(hits) / float64(total))
	}
}

// execute runs one job to a terminal state. Shutdown (root context
// canceled) is the one path that leaves a job unterminated — no finish
// record is written, so a journalled job is re-queued on restart.
func (s *Service) execute(j *Job) {
	if terminal(j.State()) {
		return // canceled while queued
	}
	jctx, cancel := context.WithCancel(s.ctx)
	defer cancel()
	j.mu.Lock()
	j.cancel = cancel
	j.mu.Unlock()
	j.setState(StateRunning, nil, nil)
	s.metrics.Gauge("service.queue_depth").Set(float64(s.queue.len()))

	var result *JobResult
	var body *ErrorBody
	if j.Kind == "experiment" {
		result, body = s.runExperiment(jctx, j)
	} else {
		result, body = s.runJob(jctx, j)
	}

	switch {
	case jctx.Err() != nil && s.ctx.Err() != nil:
		// Shutdown kill: leave the job non-terminal and unfinished in
		// the journal so a restart replays it.
		return
	case jctx.Err() != nil:
		j.setState(StateCanceled, &ErrorBody{Code: CodeCanceled, Message: "canceled by client"}, nil)
		s.metrics.Counter("service.jobs_canceled").Inc()
	case body != nil:
		j.setState(StateFailed, body, nil)
		s.metrics.Counter("service.jobs_failed").Inc()
	default:
		if result.MemoHits > 0 {
			j.setCoalesced()
			s.metrics.Counter("service.jobs_coalesced").Inc()
		}
		j.setState(StateDone, nil, result)
		s.metrics.Counter("service.jobs_done").Inc()
	}
	s.finishRecord(j)
}

// runJob executes a policy-comparison job through the exact harness path
// the gpusim CLI uses, so Report is byte-identical to the CLI's stdout.
func (s *Service) runJob(ctx context.Context, j *Job) (*JobResult, *ErrorBody) {
	req := j.Req
	machine := occupancy.GTX480()
	if req.Half {
		machine = occupancy.GTX480Half()
	}
	if req.SMs > 0 {
		machine.NumSMs = req.SMs
	}
	seed := uint64(42)
	if req.Seed != nil {
		seed = *req.Seed
	}
	auditOn := req.Kasm != "" // untrusted kernels run audited by default
	if req.Audit != nil {
		auditOn = *req.Audit
	}

	var k *isa.Kernel
	var input []uint64
	name := "kernel"
	if req.Workload != "" {
		w, err := workloads.ByName(req.Workload)
		if err != nil {
			return nil, &ErrorBody{Code: CodeUnknownWorkload, Message: err.Error()}
		}
		scale := req.Scale
		if scale <= 0 {
			scale = 1
		}
		k = w.Build(scale)
		input = w.Input(k, seed)
		name = w.Name
	} else {
		var body *ErrorBody
		if k, body = assembleKasm(req.Kasm, req.AllowLint); body != nil {
			return nil, body
		}
		name = k.Name
	}

	timing := sim.DefaultTiming()
	if req.MaxCycles > 0 {
		timing.MaxCycles = req.MaxCycles
	}
	spec := harness.RunSpec{
		Machine:  machine,
		Timing:   timing,
		Kernel:   k,
		Name:     name,
		Input:    input,
		Seed:     seed,
		Policies: resolvePolicies(&req),
		Audit:    auditOn,
		Pool:     s.pool,
		Par:      s.cfg.Par,
		Observe: func(policy string) ([]sim.Option, func(sim.Stats)) {
			// Progress samples become SSE events. Only the submission
			// that actually simulates streams them; jobs coalesced onto
			// an in-flight run get the result without the play-by-play.
			opts := []sim.Option{
				sim.WithSampleInterval(int64(sampleInterval)),
				sim.WithObserver(sim.ObserverFuncs{
					Sample: func(smp sim.Sample) { j.publish(sampleEvent(policy, smp)) },
				}),
			}
			return opts, func(st sim.Stats) {
				obs.RecordStats(s.metrics, name+"/"+policy, st)
			}
		},
	}
	rows, hits := harness.RunPolicies(ctx, spec)
	if ctx.Err() != nil {
		return nil, &ErrorBody{Code: CodeCanceled, Message: ctx.Err().Error()}
	}
	var buf bytes.Buffer
	failed := harness.RenderReport(&buf, machine, rows, nil)
	result := &JobResult{Report: buf.String(), FailedRows: failed, MemoHits: hits}
	for _, r := range rows {
		rv := RowView{Policy: r.Policy}
		if r.Err != nil {
			rv.ErrKind, rv.Err = harness.ErrKind(r.Err), r.Err.Error()
		} else {
			rv.Cycles = r.Stats.Cycles
			rv.Instructions = r.Stats.Instructions
			rv.AvgWarps = r.Stats.AvgOccupancyWarps
			rv.IPCPerSM = float64(r.Stats.Instructions) / float64(r.Stats.Cycles) / float64(machine.NumSMs)
		}
		result.Rows = append(result.Rows, rv)
	}
	return result, nil
}

// sampleInterval spaces progress samples; coarse enough that streaming a
// long run costs little, fine enough that SSE watchers see regular news.
const sampleInterval = 4096

// runExperiment executes a named paperbench experiment, with its sweeps
// fanned through — and deduplicated by — the service pool.
func (s *Service) runExperiment(ctx context.Context, j *Job) (*JobResult, *ErrorBody) {
	req := j.Req
	o := harness.Options{Scale: 1, Pool: s.pool, Ctx: ctx, Metrics: s.metrics}
	if req.Seed != nil {
		o.Seed, o.SeedSet = *req.Seed, true
	} else {
		o.Seed = 42
	}
	if req.Quick {
		o.Scale, o.NumSMs = 4, 4
	}
	if req.Scale > 0 {
		o.Scale = req.Scale
	}
	if req.SMs > 0 {
		o.NumSMs = req.SMs
	}
	if req.Audit != nil {
		o.Audit, o.AuditSet = *req.Audit, true
	}
	hits0, _ := s.pool.CacheStats()
	var buf bytes.Buffer
	failed, err := harness.RunExperiment(req.Experiment, o, &buf)
	if ctx.Err() != nil {
		return nil, &ErrorBody{Code: CodeCanceled, Message: ctx.Err().Error()}
	}
	if err != nil {
		return nil, &ErrorBody{Code: CodeSimFailed, Kind: harness.ErrKind(err), Message: err.Error()}
	}
	hits1, _ := s.pool.CacheStats()
	return &JobResult{Report: buf.String(), FailedRows: failed, MemoHits: int(hits1 - hits0)}, nil
}

// recordSpan stores one lifecycle span for j, stamped with this
// process's trace lane and the job's SLO class.
func (s *Service) recordSpan(j *Job, stage string, start, end time.Time, note string) {
	if end.IsZero() || start.IsZero() {
		return
	}
	s.spans.Record(obs.Span{
		Trace:  j.trace,
		Parent: j.parentSpan,
		Stage:  stage,
		Proc:   s.cfg.SpanProc,
		Class:  j.Req.SLOClass,
		Note:   note,
		Start:  start,
		End:    end,
	})
}

// Spans exposes the lifecycle-span recorder (the GET /v1/spans source
// and the fleet exporter's per-instance feed).
func (s *Service) Spans() *obs.SpanRecorder { return s.spans }

// Metrics exposes the service registry (sim stats plus service.*
// counters) for the /metrics endpoint.
func (s *Service) Metrics() *obs.Registry { return s.metrics }

// QueueLen reports how many jobs are waiting.
func (s *Service) QueueLen() int { return s.queue.len() }

// Running reports how many jobs are currently executing — a /readyz load
// hint for the fleet router's in-flight scorer.
func (s *Service) Running() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.jobs {
		if j.State() == StateRunning {
			n++
		}
	}
	return n
}

// MemoLen reports how many results the pool's memo cache holds.
func (s *Service) MemoLen() int { return s.pool.MemoLen() }

// Draining reports whether Drain has begun.
func (s *Service) Draining() bool { return s.draining.Load() }

// Drain performs graceful shutdown: refuse new submissions, let every
// accepted job finish, then stop the executors. It never abandons an
// accepted job — if ctx expires first, Drain returns an error and the
// caller decides whether to hard-Close (journalled jobs will be replayed
// on restart).
func (s *Service) Drain(ctx context.Context) error {
	s.draining.Store(true)
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.idle() {
			s.Close()
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("drain: %w (%d job(s) unfinished)", ctx.Err(), s.unfinished())
		case <-tick.C:
		}
	}
}

func (s *Service) idle() bool { return s.unfinished() == 0 }

func (s *Service) unfinished() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.jobs {
		if !terminal(j.State()) {
			n++
		}
	}
	return n
}

// Close hard-stops the service: cancel running simulations, stop the
// executors, close the journal. Jobs interrupted here keep their accept
// records and are replayed by the next New with the same journal path.
func (s *Service) Close() {
	s.draining.Store(true)
	s.cancel()
	s.queue.close()
	s.wg.Wait()
	s.journal.Close()
}
