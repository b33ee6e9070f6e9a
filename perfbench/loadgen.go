package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"regmutex/internal/harness"
	"regmutex/internal/obs"
	"regmutex/internal/occupancy"
	"regmutex/internal/service"
	"regmutex/internal/sim"
	"regmutex/internal/workloads"
)

// sample is one request of an open-loop phase, timed from when it was
// due.
type sample struct {
	req       service.SubmitRequest
	due, sent time.Time
	submit    time.Duration // the Submit call alone
	done      time.Time
	err       *service.ErrorBody // refused, or the job failed
	refused   bool
	result    *service.JobResult
	// Router placements (fleet only).
	instance  string
	attempts  int
	coalesced bool
}

func (s *sample) latencyMS() float64 { return ms(s.done.Sub(s.due)) }
func (s *sample) lagMS() float64     { return ms(s.sent.Sub(s.due)) }

// target admits one request and returns a function that blocks until
// the job ends and fills in the sample's outcome.
type target func(s *sample) (wait func())

// phase is one fixed-rate open-loop window and its outcome.
type phase struct {
	name    string
	rate    float64
	length  time.Duration
	tailPct float64
	samples []*sample
}

// openLoop sends reqs at their offsets whether or not earlier ones have
// finished, then waits for every job. A span per job (due to done, the
// submit call as its child) goes to tr; the request carries the job
// span as its trace parent so the layers' own spans nest under it.
func openLoop(name string, rate float64, length time.Duration, offsets []time.Duration,
	reqs []service.SubmitRequest, submit target, submitStage string, tr *tracer) *phase {
	ph := &phase{name: name, rate: rate, length: length, tailPct: tailFor(rate * length.Seconds())}
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, off := range offsets {
		s := &sample{req: reqs[i], due: t0.Add(off)}
		if d := time.Until(s.due); d > 0 {
			time.Sleep(d)
		}
		trace := fmt.Sprintf("%s-%d", name, i)
		span := tr.newID()
		s.req.TraceID, s.req.TraceParent = trace, span
		s.sent = time.Now()
		wait := submit(s)
		s.submit = time.Since(s.sent)
		tr.record("", trace, span, submitStage, s.sent, s.sent.Add(s.submit))
		ph.samples = append(ph.samples, s)
		wg.Add(1)
		go func() {
			defer wg.Done()
			wait()
			tr.record(span, trace, "", "job", s.due, s.done)
		}()
	}
	wg.Wait()
	return ph
}

// latencies returns the phase's completed-job latencies (ms) and its
// count of refused or failed jobs.
func (ph *phase) latencies() ([]float64, int) {
	var lat []float64
	failed := 0
	for _, s := range ph.samples {
		if s.err != nil {
			failed++
			continue
		}
		lat = append(lat, s.latencyMS())
	}
	return lat, failed
}

// tail is the phase's tail latency at its fixed percentile. A refused
// or failed request misses every limit, so it counts as infinitely
// slow.
func (ph *phase) tail() float64 {
	lat, failed := ph.latencies()
	for i := 0; i < failed; i++ {
		lat = append(lat, math.Inf(1))
	}
	return quantile(lat, ph.tailPct/100)
}

// stamp records the phase's rate, its tail percentile and the samples
// behind it.
func (ph *phase) stamp() map[string]any {
	lat, failed := ph.latencies()
	return map[string]any{
		"rate": ph.rate, "seconds": ph.length.Seconds(), "samples": len(ph.samples),
		"failed": failed, "tail_pct": ph.tailPct, "tail_beyond": beyond(lat, ph.tailPct/100),
	}
}

// maxRateUnderSLO finds max_rate_under_slo: the rungs (lo, hi, then hi×step^k)
// pass while their tail meets limit and nothing fails; the result
// interpolates linearly in tail/limit between the last passing and the
// first failing rung. A failing first rung scales its rate by
// limit/tail.
func maxRateUnderSLO(rungs []*phase, limit float64) (float64, bool) {
	var prevRate, prevX float64
	for i, ph := range rungs {
		x := ph.tail() / limit
		if x > 1 {
			if i == 0 {
				if math.IsInf(x, 1) {
					return 0, true
				}
				return ph.rate / x, true
			}
			if math.IsInf(x, 1) {
				return prevRate, true
			}
			return prevRate + (1-prevX)/(x-prevX)*(ph.rate-prevRate), true
		}
		prevRate, prevX = ph.rate, x
	}
	return prevRate, false
}

// spansOf returns the spans of a layer's recorder that belong to the
// given phases' requests.
func spansOf(rec *obs.SpanRecorder, phases ...*phase) []obs.Span {
	want := map[string]bool{}
	for _, ph := range phases {
		for _, s := range ph.samples {
			want[s.req.TraceID] = true
		}
	}
	var out []obs.Span
	for _, s := range rec.All() {
		if want[s.Trace] {
			out = append(out, s)
		}
	}
	return out
}

// stageDurations lists the durations (ms) of the spans of one stage.
func stageDurations(spans []obs.Span, stage string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Stage == stage {
			out = append(out, ms(s.Dur()))
		}
	}
	sort.Float64s(out)
	return out
}

// Every open-loop run has the same layout: an unmeasured warm-up at the
// lo rate (the first phase after set-up otherwise runs slow), lo and hi
// at phaseShare of the measured seconds each, then up to ladderRungs
// rungs of rungShare each climbing from hi by ladderStep until one
// misses the limit.
const (
	phaseShare  = 0.45
	rungShare   = 0.1
	ladderStep  = 1.5
	ladderRungs = 1
	// lagLimitMS is the load generator's validity bound: a run whose
	// sends went out later than this at the lag tail is not a
	// measurement of the system.
	lagLimitMS = 20.0
)

// arrivals draws n arrival offsets of a Poisson process over length,
// conditioned on n: every run of a phase sends the same number of jobs.
func arrivals(rng *splitmix, n int, length time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.float() * float64(length))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// loadPlan fixes a run's phases before any is sent.
type loadPlan struct {
	rates   []float64 // warm-up, lo, hi, then the ladder (or lo, hi twice when traced)
	lengths []time.Duration
	offsets [][]time.Duration
	reqs    [][]service.SubmitRequest
}

func planLoad(seed uint64, seconds, lo, hi float64, traced bool, next func(n int) []service.SubmitRequest) *loadPlan {
	arr := &splitmix{s: seed ^ 0xa5a5a5a5}
	secs := func(f float64) time.Duration { return time.Duration(f * seconds * float64(time.Second)) }
	p := &loadPlan{}
	p.rates = []float64{lo}
	p.lengths = []time.Duration{secs(rungShare)}
	if traced {
		// Two passes of lo and hi, untraced then traced.
		p.rates = append(p.rates, lo, hi, lo, hi)
		p.lengths = append(p.lengths, secs(0.25), secs(0.25), secs(0.25), secs(0.25))
	} else {
		p.rates = append(p.rates, lo, hi)
		p.lengths = append(p.lengths, secs(phaseShare), secs(phaseShare))
		for r, k := hi, 0; k < ladderRungs; k++ {
			r *= ladderStep
			p.rates = append(p.rates, r)
			p.lengths = append(p.lengths, secs(rungShare))
		}
	}
	for i, r := range p.rates {
		n := int(r*p.lengths[i].Seconds() + 0.5)
		p.offsets = append(p.offsets, arrivals(arr, n, p.lengths[i]))
		p.reqs = append(p.reqs, next(n))
	}
	return p
}

// drive runs the plan against submit. After the warm-up, untraced: lo,
// hi, then ladder rungs until one misses limit. Traced: lo and hi
// untraced, then lo and hi again under tr. It returns the measured lo
// and hi phases, the ladder (lo and hi first), and the untraced hi
// phase when traced.
func (p *loadPlan) drive(submit target, submitStage string, limit float64, tr *tracer) (lo, hi *phase, rungs []*phase, untracedHi *phase) {
	run := func(i int, name string, t *tracer) *phase {
		return openLoop(name, p.rates[i], p.lengths[i], p.offsets[i], p.reqs[i], submit, submitStage, t)
	}
	run(0, "warm", nil)
	lo, hi = run(1, "lo", nil), run(2, "hi", nil)
	if tr != nil {
		return run(3, "traced-lo", tr), run(4, "traced-hi", tr), nil, hi
	}
	rungs = []*phase{lo, hi}
	if hi.tail() > limit {
		return lo, hi, rungs, nil
	}
	for i := 3; i < len(p.rates); i++ {
		ph := run(i, fmt.Sprintf("rung%d", i-1), nil)
		rungs = append(rungs, ph)
		if ph.tail() > limit {
			break
		}
	}
	return lo, hi, rungs, nil
}

// putLatency reports the latency end-to-end metrics and the stamp of
// every phase behind them.
func putLatency(rep *report, lo, hi *phase, rungs []*phase, limit float64) {
	latLo, _ := lo.latencies()
	latHi, _ := hi.latencies()
	rep.e2e["p50_ms_lo"] = median(latLo)
	rep.e2e["tail_ms_lo"] = lo.tail()
	rep.e2e["p50_ms_hi"] = median(latHi)
	rep.e2e["tail_ms_hi"] = hi.tail()
	var st []map[string]any
	for _, ph := range append([]*phase{lo, hi}, rungs[min(2, len(rungs)):]...) {
		s := ph.stamp()
		s["name"], s["tail_ms"] = ph.name, ph.tail()
		st = append(st, s)
	}
	rep.stamp["phases"] = st
	rep.stamp["limit_ms"] = limit
	if rungs != nil {
		r, crossed := maxRateUnderSLO(rungs, limit)
		rep.e2e["max_rate_under_slo"] = r
		rep.stamp["ladder_crossed"] = crossed
	}
}

// putLoad reports what every open-loop workload measures the same way:
// attempts and failures over all phases, delivered simulation
// throughput and the load generator's lateness over lo and hi.
func putLoad(rep *report, lo, hi *phase, rungs []*phase) {
	all := append([]*phase{lo, hi}, rungs[min(2, len(rungs)):]...)
	for _, ph := range all {
		_, failed := ph.latencies()
		rep.attempted += len(ph.samples)
		rep.failed += failed
	}
	rep.e2e["success_share"] = 1 - float64(rep.failed)/float64(rep.attempted)
	var instr int64
	var window time.Duration
	var lag []float64
	for _, ph := range []*phase{lo, hi} {
		first, last := ph.samples[0].due, ph.samples[0].done
		for _, s := range ph.samples {
			lag = append(lag, s.lagMS())
			if s.done.After(last) {
				last = s.done
			}
			if s.result != nil {
				for _, r := range s.result.Rows {
					instr += r.Instructions
				}
			}
		}
		window += last.Sub(first)
	}
	rep.e2e["sim_minstr_per_s"] = float64(instr) / window.Seconds() / 1e6
	lagTail := quantile(lag, tailFor(float64(len(lag)))/100)
	rep.layers["loadgen.lag_ms"] = lagTail
	rep.layers["loadgen.samples"] = float64(len(lag))
	rep.stamp["lag_tail_ms"] = lagTail
	rep.stamp["lag_limit_ms"] = lagLimitMS
	if lagTail > lagLimitMS {
		rep.invalid = fmt.Sprintf("load generator lag tail %.1f ms exceeds %.0f ms", lagTail, lagLimitMS)
	}
}

// refused counts the requests a layer turned away at submission.
func refused(phases ...*phase) int {
	n := 0
	for _, ph := range phases {
		for _, s := range ph.samples {
			if s.refused {
				n++
			}
		}
	}
	return n
}

// checkJobs verifies every finished job: no failed rows and a report
// equal to the first one seen for its fingerprint. It returns the
// digest of all reports by fingerprint.
func checkJobs(rep *report, first map[uint64]string, phases ...*phase) string {
	for _, ph := range phases {
		for _, s := range ph.samples {
			if s.err != nil || s.result == nil {
				continue
			}
			r := s.result
			rep.check(r.FailedRows == 0, "%s %s: %d failed rows", ph.name, s.req.Workload, r.FailedRows)
			fp := s.req.Fingerprint()
			if prev, ok := first[fp]; ok {
				rep.check(prev == r.Report, "%s %s: report differs from the first one for fingerprint %016x", ph.name, s.req.Workload, fp)
			} else {
				first[fp] = r.Report
			}
		}
	}
	h := fnv.New64a()
	for _, fp := range sortedFPs(first) {
		fmt.Fprintf(h, "%016x %s\n", fp, first[fp])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func sortedFPs(m map[uint64]string) []uint64 {
	out := make([]uint64, 0, len(m))
	for fp := range m {
		out = append(out, fp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// putJobLayers reports the per-layer metrics a served job set shows
// from outside: simulated counts from its result rows, the layers'
// own spans and lane gauges, and a replay of the compile calls.
func putJobLayers(rep *report, phases []*phase, scale int, spans []obs.Span, gauges []obs.MetricsReport) error {
	var t simTotals
	var hitLat, missLat, submits []float64
	fig7 := fig7Pairs{}
	hits, runs := 0, 0
	fresh := map[string]int{}
	freshTrace := map[string]bool{}
	machine := occupancy.GTX480()
	for _, ph := range phases {
		for _, s := range ph.samples {
			submits = append(submits, float64(s.submit.Microseconds()))
			if s.err != nil || s.result == nil {
				continue
			}
			r := s.result
			hits += r.MemoHits
			runs += len(r.Rows)
			fresh[s.req.Workload] += len(r.Rows) - r.MemoHits
			var static, rm int64
			for _, row := range r.Rows {
				switch row.Policy {
				case "static":
					static = row.Cycles
				case "regmutex":
					rm = row.Cycles
				}
			}
			if w, err := workloads.ByName(s.req.Workload); err == nil && w.RegisterLimited {
				fig7.add(w.Name, static, rm)
			}
			if r.MemoHits > 0 {
				if r.MemoHits == len(r.Rows) {
					hitLat = append(hitLat, s.latencyMS())
				}
				continue
			}
			// Only jobs that simulated every policy charge the sim layer.
			missLat = append(missLat, s.latencyMS())
			freshTrace[s.req.TraceID] = true
			for _, row := range r.Rows {
				t.instr += row.Instructions
				t.cycles += row.Cycles
				t.smCycles += row.Cycles * int64(machine.NumSMs)
				t.occ = append(t.occ, row.AvgWarps)
			}
		}
	}
	fig7.put(rep)
	t.slots = t.smCycles * int64(machine.SchedulersPerSM)
	laneStalls(&t, gauges)
	var busy time.Duration
	for _, s := range spans {
		if s.Stage == obs.StageRun && freshTrace[s.Trace] {
			busy += s.Dur()
		}
	}
	t.put(rep, busy, 1)

	queue := stageDurations(spans, obs.StageQueue)
	rep.layers["service.submit_us"] = median(submits)
	rep.layers["service.queue_wait_ms_p50"] = median(queue)
	rep.layers["service.queue_wait_ms_tail"] = quantile(queue, tailFor(float64(len(queue)))/100)
	rep.layers["service.run_ms"] = median(stageDurations(spans, obs.StageRun))
	rep.layers["service.hit_p50_ms"] = median(hitLat)
	rep.layers["service.miss_p50_ms"] = median(missLat)
	if runs > 0 {
		rep.layers["memo.hit_share"] = float64(hits) / float64(runs)
	}

	compile, calls, err := replayCompiles(fresh, scale)
	if err != nil {
		return err
	}
	rep.layers["compile.busy_s"] = compile.Seconds()
	rep.layers["compile.calls"] = float64(calls)
	bs, err := bsMatches(1)
	if err != nil {
		return err
	}
	rep.layers["compile.bs_match"] = float64(bs)
	return nil
}

// laneStalls folds the daemon's per-lane stats gauges (the last run of
// each workload/policy lane) into stall and acquire shares.
func laneStalls(t *simTotals, gauges []obs.MetricsReport) {
	var slots int64
	var stall sim.StallBreakdown
	causes := sim.StallCauses()
	for _, g := range gauges {
		for _, m := range g.Metrics {
			lane, suffix, ok := strings.Cut(m.Name, ".")
			if !ok || !strings.Contains(lane, "/") {
				continue
			}
			switch {
			case suffix == "sched_slots":
				slots += int64(m.Value)
			case suffix == "acquire_attempts":
				t.acqAttempts += uint64(m.Value)
			case suffix == "acquire_successes":
				t.acqSuccesses += uint64(m.Value)
			case strings.HasPrefix(suffix, "stall."):
				for _, c := range causes {
					if suffix == "stall."+c.String() {
						stall[c] += int64(m.Value)
					}
				}
			}
		}
	}
	if slots > 0 {
		// Shares come from the lanes; scale them onto the job set's
		// slot count so put() divides them back out.
		for i, v := range stall {
			t.stall[i] = int64(float64(v) / float64(slots) * float64(t.slots))
		}
	}
}

// replayCompiles times harness.PreparePolicy, the compile layer's front
// door, for every workload the daemon simulated, and charges each fresh
// policy run the mean compile time of its workload. The daemon compiles
// inside its run stage, where it cannot be timed from outside.
func replayCompiles(fresh map[string]int, scale int) (time.Duration, int, error) {
	var total time.Duration
	calls := 0
	machine := occupancy.GTX480()
	for _, name := range sortedKeys(fresh) {
		w, err := workloads.ByName(name)
		if err != nil {
			return 0, 0, err
		}
		k := w.Build(scale)
		var per []float64
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			for _, p := range harness.PolicyNames {
				if _, _, err := harness.PreparePolicy(machine, k, p); err != nil {
					return 0, 0, err
				}
			}
			per = append(per, float64(time.Since(t0))/float64(len(harness.PolicyNames)))
		}
		total += time.Duration(median(per) * float64(fresh[name]))
		calls += fresh[name]
	}
	return total, calls, nil
}
