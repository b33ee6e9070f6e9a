package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"regmutex/internal/harness"
	"regmutex/internal/obs"
	"regmutex/internal/occupancy"
	"regmutex/internal/runpool"
	"regmutex/internal/service"
	"regmutex/internal/workloads"
)

// serve-cold's fixed shape. The rates are absolute, chosen on a 2-core
// host to sit at about a quarter and a half of the daemon's capacity at
// service.Config{}; a slower simulator or queue shows as higher latency
// at the same rate, not as a different rate.
const (
	serveWorkload = "dwt2d"
	serveScale    = 16  // grid divisor of every request
	serveLoRate   = 5.0 // jobs/s
	serveHiRate   = 10.0
	serveLimitMS  = 150.0 // tail latency limit for max_rate_under_slo
	serveSetups   = 3
	serveWarmJobs = 4
)

// coldJobs makes serve-cold's requests: built-in runs of every policy of
// one workload, each with a fresh input seed, so every request is a
// distinct simulation of about the same cost. One workload keeps a
// phase's latency percentiles from depending on which kernels a seed's
// few dozen requests happened to draw.
func coldJobs(rng *splitmix) func(n int) []service.SubmitRequest {
	return func(n int) []service.SubmitRequest {
		out := make([]service.SubmitRequest, n)
		for i := range out {
			seed := rng.next()
			out[i] = service.SubmitRequest{Workload: serveWorkload, Scale: serveScale, Seed: &seed}
		}
		return out
	}
}

// serviceTarget submits straight into an in-process daemon.
func serviceTarget(svc *service.Service) target {
	return func(s *sample) func() {
		j, body := svc.Submit(s.req)
		if body != nil {
			s.err, s.refused, s.done = body, true, time.Now()
			return func() {}
		}
		return func() {
			<-j.Done()
			s.done = time.Now()
			v := j.View()
			s.result = v.Result
			if v.State != service.StateDone {
				s.err = v.Error
				if s.err == nil {
					s.err = &service.ErrorBody{Code: v.State, Message: "job ended " + v.State}
				}
			}
		}
	}
}

// crossCheck re-runs a few served requests through the harness path
// the gpusim CLI uses and requires the daemon's report to match.
func crossCheck(rep *report, samples []*sample, n int) {
	checked := 0
	for _, s := range samples {
		if checked == n {
			return
		}
		if s.err != nil || s.result == nil {
			continue
		}
		checked++
		w, err := workloads.ByName(s.req.Workload)
		if err != nil {
			rep.check(false, "cross-check %s: %v", s.req.Workload, err)
			continue
		}
		k := w.Build(s.req.Scale)
		machine := occupancy.GTX480()
		rows, _ := harness.RunPolicies(context.Background(), harness.RunSpec{
			Machine: machine, Kernel: k, Name: w.Name, Input: w.Input(k, *s.req.Seed),
			Seed: *s.req.Seed, Policies: harness.PolicyNames, Pool: runpool.New(1), Par: 1,
		})
		var buf bytes.Buffer
		harness.RenderReport(&buf, machine, rows, nil)
		rep.check(buf.String() == s.result.Report, "cross-check %s seed %d: daemon report differs from the CLI path's", w.Name, *s.req.Seed)
	}
}

func runServeCold(cfg runConfig) (*report, error) {
	rep := newReport()
	jobs := coldJobs(&splitmix{s: cfg.seed})
	var setups []float64
	var svc *service.Service
	for i := 0; i < serveSetups; i++ {
		if svc != nil {
			svc.Close()
		}
		t0 := time.Now()
		var err error
		svc, err = service.New(service.Config{})
		if err != nil {
			return nil, err
		}
		svc.Start()
		// A few jobs to completion, so lazy set-up is done before timing.
		for _, req := range jobs(serveWarmJobs) {
			warm := &sample{req: req}
			serviceTarget(svc)(warm)()
			if warm.err != nil {
				svc.Close()
				return nil, fmt.Errorf("warm-up job: %s", warm.err.Error())
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer svc.Close()
	rep.e2e["setup_s"] = median(setups)
	rep.stamp["scale"] = serveScale
	rep.stamp["config"] = "service.Config{}"

	plan := planLoad(cfg.seed, cfg.seconds, serveLoRate, serveHiRate, cfg.trace, jobs)
	var tr *tracer
	if cfg.trace {
		tr = &tracer{}
	}
	rt0 := readRuntime()
	lo, hi, rungs, untracedHi := plan.drive(serviceTarget(svc), "submit", serveLimitMS, tr)
	rt := readRuntime().sub(rt0)
	rep.e2e["peak_rss_mb"] = peakRSSMB()

	first := map[uint64]string{}
	rep.digest = checkJobs(rep, first, lo, hi)
	checkJobs(rep, first, rungs...)
	crossCheck(rep, append(lo.samples, hi.samples...), 3)

	putLatency(rep, lo, hi, rungs, serveLimitMS)
	putLoad(rep, lo, hi, rungs)
	spans := spansOf(svc.Spans(), lo, hi)
	if err := putJobLayers(rep, []*phase{lo, hi}, serveScale, spans, []obs.MetricsReport{svc.Metrics().Snapshot()}); err != nil {
		return nil, err
	}
	rep.layers["memo.len"] = float64(svc.MemoLen())
	rep.layers["service.refused"] = float64(refused(lo, hi))
	rep.layers["runtime.gc_cpu_s"] = rt.gcCPU
	rep.layers["runtime.alloc_mb"] = rt.allocBytes / (1 << 20)
	if cfg.trace {
		rep.spans = append(tr.all(), spans...)
		addSelfTimes(rep, rep.spans)
		u, _ := untracedHi.latencies()
		t, _ := hi.latencies()
		if m := median(u); m > 0 {
			rep.layers["trace.overhead_pct"] = 100 * (median(t) - m) / m
		}
	}
	return rep, nil
}
