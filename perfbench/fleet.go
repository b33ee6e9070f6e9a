package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"regmutex/internal/cluster"
	"regmutex/internal/obs"
	"regmutex/internal/service"
	"regmutex/internal/workloads"
)

// fleet-zipf's fixed shape. The catalogue holds more memo entries (5
// policy runs per item) than one instance's default memo (256) and
// fewer than the fleet's, so the hit share depends on the router
// keeping each fingerprint on one instance.
const (
	fleetInstances = 2
	fleetCatalogue = 72
	fleetZipfS     = 1.0
	fleetScale     = 64
	fleetLoRate    = 25.0 // jobs/s
	fleetHiRate    = 50.0
	fleetLimitMS   = 25.0
	fleetSetups    = 3
)

// fleet is two in-process daemons behind a router, each instance served
// over loopback HTTP as gpusimd serves it.
type fleet struct {
	svcs    []*service.Service
	servers []*http.Server
	router  *cluster.Router
	wg      sync.WaitGroup
}

// instanceConfig sizes each instance so that its executors plus its
// pool workers stay within the host's cores.
func instanceConfig() service.Config {
	pool := max(1, runtime.NumCPU()/fleetInstances)
	return service.Config{Workers: max(1, runtime.NumCPU()-pool), PoolWorkers: pool}
}

func startFleet() (*fleet, error) {
	f := &fleet{}
	var urls []string
	for i := 0; i < fleetInstances; i++ {
		cfg := instanceConfig()
		cfg.SpanProc = fmt.Sprintf("gpusimd-%d", i)
		svc, err := service.New(cfg)
		if err != nil {
			f.close()
			return nil, err
		}
		svc.Start()
		f.svcs = append(f.svcs, svc)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		srv := &http.Server{Handler: service.Handler(svc)}
		f.servers = append(f.servers, srv)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			srv.Serve(ln) // returns http.ErrServerClosed on close
		}()
		urls = append(urls, "http://"+ln.Addr().String())
	}
	r, err := cluster.New(cluster.Config{Instances: urls})
	if err != nil {
		f.close()
		return nil, err
	}
	r.Start()
	f.router = r
	return f, nil
}

// close stops the router, then each instance's server and daemon, and
// waits for the servers' goroutines.
func (f *fleet) close() {
	if f.router != nil {
		f.router.Close()
	}
	for _, s := range f.servers {
		s.Close()
	}
	for _, s := range f.svcs {
		s.Close()
	}
	f.wg.Wait()
}

// routerTarget submits through the router and records the placement.
func routerTarget(r *cluster.Router) target {
	return func(s *sample) func() {
		j, body := r.Submit(s.req)
		if body != nil {
			s.err, s.refused, s.done = body, true, time.Now()
			return func() {}
		}
		return func() {
			<-j.Done()
			s.done = time.Now()
			v := j.View()
			s.instance, s.attempts, s.coalesced = v.Instance, v.Attempts, v.Coalesced
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

// catalogue is fleet-zipf's fixed set of distinct requests. Item k runs
// workload k mod 16 (in name order) with an input seed drawn from the
// run's seed, and Zipf rank k: which workloads are popular is fixed, so
// the instruction mix a run delivers does not depend on the seed.
type catalogue struct {
	items []service.SubmitRequest
	cdf   []float64
}

func newCatalogue(rng *splitmix) *catalogue {
	c := &catalogue{}
	names := workloads.Names()
	var sum float64
	for k := 0; k < fleetCatalogue; k++ {
		seed := rng.next()
		c.items = append(c.items, service.SubmitRequest{Workload: names[k%len(names)], Scale: fleetScale, Seed: &seed})
		sum += 1 / math.Pow(float64(k+1), fleetZipfS)
		c.cdf = append(c.cdf, sum)
	}
	for i := range c.cdf {
		c.cdf[i] /= sum
	}
	return c
}

func (c *catalogue) draw(rng *splitmix) service.SubmitRequest {
	u := rng.float()
	for i, p := range c.cdf {
		if u < p {
			return c.items[i]
		}
	}
	return c.items[len(c.items)-1]
}

// warm submits every catalogue item through the router at once and
// waits, so each fingerprint's answer sits in its affinity instance's
// memo; it returns where each landed and the first report of each.
func warm(f *fleet, c *catalogue) (map[uint64]string, map[uint64]string, error) {
	submit := routerTarget(f.router)
	samples := make([]*sample, len(c.items))
	waits := make([]func(), len(c.items))
	for i, req := range c.items {
		samples[i] = &sample{req: req}
		waits[i] = submit(samples[i])
	}
	placed := map[uint64]string{}
	first := map[uint64]string{}
	for i, w := range waits {
		w()
		s := samples[i]
		if s.err != nil {
			return nil, nil, errors.New(s.err.Error())
		}
		placed[s.req.Fingerprint()] = s.instance
		first[s.req.Fingerprint()] = s.result.Report
	}
	return placed, first, nil
}

func runFleetZipf(cfg runConfig) (*report, error) {
	rep := newReport()
	rng := &splitmix{s: cfg.seed}
	cat := newCatalogue(rng)
	var setups []float64
	var f *fleet
	var placed, first map[uint64]string
	for i := 0; i < fleetSetups; i++ {
		if f != nil {
			f.close()
		}
		t0 := time.Now()
		var err error
		if f, err = startFleet(); err != nil {
			return nil, err
		}
		if placed, first, err = warm(f, cat); err != nil {
			f.close()
			return nil, fmt.Errorf("memo warm-up: %v", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer f.close()
	rep.e2e["setup_s"] = median(setups)
	ic := instanceConfig()
	rep.stamp["scale"] = fleetScale
	rep.stamp["instances"] = fleetInstances
	rep.stamp["instance_workers"] = ic.Workers
	rep.stamp["instance_pool_workers"] = ic.PoolWorkers
	rep.stamp["catalogue"] = fleetCatalogue
	rep.stamp["zipf_s"] = fleetZipfS

	draws := &splitmix{s: cfg.seed ^ 0x5eed}
	next := func(n int) []service.SubmitRequest {
		out := make([]service.SubmitRequest, n)
		for i := range out {
			out[i] = cat.draw(draws)
		}
		return out
	}
	plan := planLoad(cfg.seed, cfg.seconds, fleetLoRate, fleetHiRate, cfg.trace, next)
	var tr *tracer
	if cfg.trace {
		tr = &tracer{}
	}
	rt0 := readRuntime()
	lo, hi, rungs, untracedHi := plan.drive(routerTarget(f.router), "router.submit", fleetLimitMS, tr)
	rt := readRuntime().sub(rt0)
	rep.e2e["peak_rss_mb"] = peakRSSMB()

	rep.digest = checkJobs(rep, first, lo, hi)
	checkJobs(rep, first, rungs...)
	putLatency(rep, lo, hi, rungs, fleetLimitMS)
	putLoad(rep, lo, hi, rungs)

	var spans []obs.Span
	var gauges []obs.MetricsReport
	var instE2E []float64
	memoLen := 0
	for _, svc := range f.svcs {
		s := spansOf(svc.Spans(), lo, hi)
		spans = append(spans, s...)
		gauges = append(gauges, svc.Metrics().Snapshot())
		memoLen += svc.MemoLen()
		instE2E = append(instE2E, instanceE2E(s)...)
	}
	if err := putJobLayers(rep, []*phase{lo, hi}, fleetScale, spans, gauges); err != nil {
		return nil, err
	}
	rep.layers["memo.len"] = float64(memoLen)
	rep.layers["service.refused"] = float64(refused(lo, hi))
	putRouterLayers(rep, []*phase{lo, hi}, placed, instE2E)
	rep.layers["runtime.gc_cpu_s"] = rt.gcCPU
	rep.layers["runtime.alloc_mb"] = rt.allocBytes / (1 << 20)
	if cfg.trace {
		rep.spans = append(append(tr.all(), spans...), spansOf(f.router.Spans(), lo, hi)...)
		addSelfTimes(rep, rep.spans)
		u, _ := untracedHi.latencies()
		t, _ := hi.latencies()
		if m := median(u); m > 0 {
			rep.layers["trace.overhead_pct"] = 100 * (median(t) - m) / m
		}
	}
	return rep, nil
}

// instanceE2E is each instance job's accept-to-stream-end time (ms)
// from the instance's own spans.
func instanceE2E(spans []obs.Span) []float64 {
	type iv struct{ a, b time.Time }
	byTrace := map[string]*iv{}
	for _, s := range spans {
		v := byTrace[s.Trace]
		if v == nil {
			byTrace[s.Trace] = &iv{s.Start, s.End}
			continue
		}
		if s.Start.Before(v.a) {
			v.a = s.Start
		}
		if s.End.After(v.b) {
			v.b = s.End
		}
	}
	var out []float64
	for _, v := range byTrace {
		out = append(out, ms(v.b.Sub(v.a)))
	}
	return out
}

// putRouterLayers reports the router's placements: how often a repeat
// fingerprint went back to the instance that computed it first, retry
// attempts, coalescing, the Submit call, and the hop the router adds
// over the instance's own accept-to-stream-end time.
func putRouterLayers(rep *report, phases []*phase, placed map[uint64]string, instE2E []float64) {
	var submits, routed []float64
	kept, repeats, coalesced, jobs, attempts := 0, 0, 0, 0, 0
	for _, ph := range phases {
		for _, s := range ph.samples {
			submits = append(submits, float64(s.submit.Microseconds()))
			if s.err != nil {
				continue
			}
			jobs++
			attempts += s.attempts
			if s.coalesced {
				coalesced++
			}
			routed = append(routed, ms(s.done.Sub(s.sent)))
			if home, ok := placed[s.req.Fingerprint()]; ok && s.instance != "" {
				repeats++
				if s.instance == home {
					kept++
				}
			}
		}
	}
	rep.layers["router.submit_us"] = median(submits)
	rep.layers["router.hop_ms"] = median(routed) - median(instE2E)
	if repeats > 0 {
		rep.layers["router.affinity_kept"] = float64(kept) / float64(repeats)
	}
	if jobs > 0 {
		rep.layers["router.attempts_per_job"] = float64(attempts) / float64(jobs)
		rep.layers["router.coalesced_share"] = float64(coalesced) / float64(jobs)
	}
}
