package service

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"regmutex/internal/obs"
)

// HandlerOption tunes the HTTP surface built by Handler.
type HandlerOption func(*handlerConfig)

type handlerConfig struct {
	log       *slog.Logger
	pprof     bool
	keepalive time.Duration
}

// WithAccessLog routes structured access logs (one line per request,
// request-ID correlated) to l. Default: discarded.
func WithAccessLog(l *slog.Logger) HandlerOption {
	return func(c *handlerConfig) { c.log = l }
}

// WithPprof mounts net/http/pprof under /debug/pprof/. Off by default:
// profiling endpoints are opt-in on a traffic-serving daemon.
func WithPprof(on bool) HandlerOption {
	return func(c *handlerConfig) { c.pprof = on }
}

// WithSSEKeepalive sets the interval between ": ping" comment frames on
// idle event streams so proxies and read timeouts don't sever quiet
// watchers. Default 15s; <= 0 keeps the default.
func WithSSEKeepalive(d time.Duration) HandlerOption {
	return func(c *handlerConfig) {
		if d > 0 {
			c.keepalive = d
		}
	}
}

// Handler builds the gpusimd HTTP surface over s:
//
//	POST   /v1/jobs             submit (202; ?wait=1 blocks for the result,
//	                            and a client disconnect while waiting
//	                            cancels the job)
//	GET    /v1/jobs             list all jobs
//	GET    /v1/jobs/{id}        job status + result
//	DELETE /v1/jobs/{id}        cancel
//	GET    /v1/jobs/{id}/events SSE event stream; every frame carries a
//	                            monotonically increasing `id:` so clients
//	                            (and the router's stream proxy) resume
//	                            after a reconnect via the standard
//	                            Last-Event-ID header (?since=N also
//	                            works); ": ping" keepalives while idle
//	GET    /healthz             liveness: always 200; body says ok|draining
//	GET    /readyz              readiness: 503 + Retry-After while
//	                            draining; body carries queued/running/
//	                            memo_len load hints for router scoring
//	GET    /metrics             obs metrics (?format=csv|prometheus)
//	/debug/pprof/*              profiling, only with WithPprof(true)
//
// Every route is wrapped in telemetry middleware: responses carry
// X-Request-Id (inbound values honored), per-route latency histograms,
// in-flight and status-class series land in s.Metrics(), and each
// request emits one structured access-log line.
func Handler(s *Service, opts ...HandlerOption) http.Handler {
	cfg := handlerConfig{log: obs.NopLogger(), keepalive: 15 * time.Second}
	for _, o := range opts {
		o(&cfg)
	}
	in := newInstrument(s.Metrics(), cfg.log)
	mux := http.NewServeMux()
	handle := func(pattern, route string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, in.wrap(route, h))
	}
	handle("POST /v1/jobs", "v1_jobs_submit", func(w http.ResponseWriter, r *http.Request) { handleSubmit(s, w, r) })
	handle("GET /v1/jobs", "v1_jobs_list", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Jobs())
	})
	handle("GET /v1/jobs/{id}", "v1_jobs_get", func(w http.ResponseWriter, r *http.Request) {
		j := s.Job(r.PathValue("id"))
		if j == nil {
			writeError(w, &ErrorBody{Code: CodeNotFound, Message: "no such job"})
			return
		}
		writeJSON(w, http.StatusOK, j.View())
	})
	handle("DELETE /v1/jobs/{id}", "v1_jobs_cancel", func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.Cancel(r.PathValue("id"))
		if !ok {
			writeError(w, &ErrorBody{Code: CodeNotFound, Message: "no such job"})
			return
		}
		writeJSON(w, http.StatusOK, j.View())
	})
	handle("GET /v1/jobs/{id}/events", "v1_jobs_events", func(w http.ResponseWriter, r *http.Request) {
		handleEvents(s, w, r, cfg.keepalive)
	})
	handle("GET /v1/spans", "v1_spans", func(w http.ResponseWriter, r *http.Request) {
		// The fleet-trace exporter's per-instance feed: lifecycle spans,
		// optionally filtered to one trace (?trace=ID). Always a JSON
		// array (empty when the ring holds nothing for the trace).
		spans := s.Spans().ByTrace(r.URL.Query().Get("trace"))
		if spans == nil {
			spans = []obs.Span{}
		}
		writeJSON(w, http.StatusOK, spans)
	})
	handle("GET /healthz", "healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness: the process is up and answering — 200 even while
		// draining, with a body that says which. Load balancers that must
		// stop routing use /readyz.
		status := "ok"
		if s.Draining() {
			status = "draining"
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"status": status, "queued": s.QueueLen(),
		})
	})
	handle("GET /readyz", "readyz", func(w http.ResponseWriter, r *http.Request) {
		// The body doubles as the fleet router's load probe: queue depth,
		// running jobs, and memo size feed its weighted instance scoring,
		// so readiness and load travel in one request.
		body := map[string]any{
			"status":   "ok",
			"queued":   s.QueueLen(),
			"running":  s.Running(),
			"memo_len": s.MemoLen(),
		}
		if s.Draining() {
			body["status"] = "draining"
			w.Header().Set("Retry-After", "10")
			writeJSON(w, http.StatusServiceUnavailable, body)
			return
		}
		writeJSON(w, http.StatusOK, body)
	})
	handle("GET /metrics", "metrics", func(w http.ResponseWriter, r *http.Request) {
		s.RefreshGauges()
		switch r.URL.Query().Get("format") {
		case "csv":
			w.Header().Set("Content-Type", "text/csv")
			s.Metrics().Snapshot().WriteCSV(w)
		case "prometheus":
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			s.Metrics().WritePrometheus(w)
		default:
			w.Header().Set("Content-Type", "application/json")
			s.Metrics().Snapshot().WriteJSON(w)
		}
	})
	if cfg.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func handleSubmit(s *Service, w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	var req SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, &ErrorBody{Code: CodeBadRequest, Message: "bad JSON: " + err.Error()})
		return
	}
	if req.Client == "" {
		if req.Client = r.Header.Get("X-Client"); req.Client == "" {
			if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
				req.Client = host
			} else {
				req.Client = r.RemoteAddr
			}
		}
	}
	// Trace identity: an explicit X-Trace-Context (the router's, carrying
	// the attempt span to parent under) wins; otherwise the request ID
	// the middleware threaded through starts a fresh single-hop trace.
	if tc := r.Header.Get(obs.TraceContextHeader); tc != "" {
		req.TraceID, req.TraceParent = obs.ParseTraceContext(tc)
	} else {
		req.TraceID = RequestID(r.Context())
	}
	j, body := s.Submit(req)
	if body != nil {
		writeError(w, body)
		return
	}
	s.recordSpan(j, obs.StageAccept, t0, time.Now(), "")
	s.logger().Info("job accepted",
		"job", j.ID, "kind", j.Kind, "client", req.Client,
		"request_id", RequestID(r.Context()), "trace", j.Trace())
	if r.URL.Query().Get("wait") == "" {
		writeJSON(w, http.StatusAccepted, j.View())
		return
	}
	// Synchronous mode: the client's connection owns the job — hanging
	// up before the result is ready withdraws it (the simulation itself
	// survives if a coalesced twin still wants it).
	select {
	case <-j.Done():
		view := j.View()
		_, _, finished := j.spanTimes()
		s.recordSpan(j, obs.StageStream, finished, time.Now(), "wait")
		writeJSON(w, http.StatusOK, view)
	case <-r.Context().Done():
		s.Cancel(j.ID)
	}
}

func handleEvents(s *Service, w http.ResponseWriter, r *http.Request, keepalive time.Duration) {
	t0 := time.Now()
	j := s.Job(r.PathValue("id"))
	if j == nil {
		writeError(w, &ErrorBody{Code: CodeNotFound, Message: "no such job"})
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok || !canFlush(w) {
		writeError(w, &ErrorBody{Code: CodeInternal, Message: "streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	since, _ := strconv.Atoi(r.URL.Query().Get("since"))
	// Last-Event-ID (set by EventSource and the router's stream proxy on
	// reconnect) names the last frame the client saw; resume just past it.
	// It wins over ?since so a reconnecting client can keep its original
	// URL untouched.
	if last := r.Header.Get("Last-Event-ID"); last != "" {
		if n, err := strconv.Atoi(last); err == nil {
			since = n + 1
		}
	}
	ping := time.NewTicker(keepalive)
	defer ping.Stop()
	for {
		events, changed := j.EventsSince(since)
		for _, ev := range events {
			data, _ := json.Marshal(ev)
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
			since = ev.Seq + 1
			if ev.Type == "state" && terminal(ev.State) {
				// Stream stage: the delivery tail from job finish (or
				// stream attach, if the watcher arrived later) to the
				// terminal frame. Like the ?wait path, it is recorded
				// before the frame goes out, so the span exists by the
				// time the client holds the result.
				_, _, finished := j.spanTimes()
				start := finished
				if t0.After(start) {
					start = t0
				}
				s.recordSpan(j, obs.StageStream, start, time.Now(), "sse")
				flusher.Flush()
				return
			}
		}
		flusher.Flush()
		select {
		case <-changed:
		case <-ping.C:
			// SSE comment frame: ignored by clients, but keeps bytes
			// moving so idle streams survive proxies and read timeouts.
			fmt.Fprint(w, ": ping\n\n")
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// HTTPStatus maps an ErrorBody code to its HTTP status. Exported so the
// cluster router's HTTP layer answers with exactly the statuses an
// instance would.
func HTTPStatus(code string) int {
	switch code {
	case CodeBadRequest, CodeParseError, CodeUnknownWorkload, CodeUnknownPolicy, CodeUnknownExperiment:
		return http.StatusBadRequest
	case CodeLintRejected:
		return http.StatusUnprocessableEntity
	case CodeQueueFull, CodeRateLimited:
		return http.StatusTooManyRequests
	case CodeDraining:
		return http.StatusServiceUnavailable
	case CodeNotFound:
		return http.StatusNotFound
	default:
		return http.StatusInternalServerError
	}
}

func writeError(w http.ResponseWriter, body *ErrorBody) {
	if body.RetryAfterSec > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(body.RetryAfterSec))
	}
	writeJSON(w, HTTPStatus(body.Code), map[string]*ErrorBody{"error": body})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
