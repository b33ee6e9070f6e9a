package main

import (
	"fmt"
	"hash/fnv"
	"slices"
	"time"

	"regmutex/internal/harness"
	"regmutex/internal/isa"
	"regmutex/internal/occupancy"
	"regmutex/internal/runpool"
	"regmutex/internal/sim"
	"regmutex/internal/workloads"
)

// sweepScale and sweepSMs are paperbench -quick's shape: the grid
// divided by 4 over 4 SMs keeps each SM's load, and so the Figure 7
// cycle reductions, close to the full-size run's, while an 80-cell
// round takes seconds instead of a minute.
const (
	sweepScale = 4
	sweepSMs   = 4
)

// sweepSetups is how many times a run repeats set-up; setup_s is the
// median.
const sweepSetups = 3

// sweepCell is one (kernel, machine, policy) simulation of a round.
type sweepCell struct {
	w       *workloads.Workload
	k       *isa.Kernel
	machine occupancy.Config
	policy  string
	input   []uint64
}

// cellOut is one cell's outcome, timed from outside the layers.
type cellOut struct {
	st        sim.Stats
	global    []uint64
	due       time.Time // round start: every cell of a round is due then
	start     time.Time
	compile   time.Duration
	simulated time.Duration
	end       time.Time
	err       error
}

// buildSweep makes the sweep's cells: all sixteen Table I kernels under
// all five policies, the Figure 7 set on the GTX480 and the Figure 8
// set on the half-register-file machine, with inputs from seed.
func buildSweep(seed uint64) []sweepCell {
	var cells []sweepCell
	for _, w := range workloads.All() {
		machine := occupancy.GTX480()
		if !w.RegisterLimited {
			machine = occupancy.GTX480Half()
		}
		machine.NumSMs = sweepSMs
		k := w.Build(sweepScale)
		input := w.Input(k, seed)
		for _, p := range harness.PolicyNames {
			cells = append(cells, sweepCell{w: w, k: k, machine: machine, policy: p, input: input})
		}
	}
	return cells
}

// runCell compiles and simulates one cell with the shipped default
// intra-run parallelism (0 = GOMAXPROCS), timing each layer call.
func runCell(c sweepCell, due time.Time, tr *tracer, trace, parent string) cellOut {
	out := cellOut{due: due, start: time.Now()}
	run, pol, err := harness.PreparePolicy(c.machine, c.k, c.policy)
	t1 := time.Now()
	out.compile = t1.Sub(out.start)
	if err != nil {
		out.err, out.end = err, t1
		return out
	}
	global := append([]uint64(nil), c.input...)
	d, err := sim.New(sim.DeviceSpec{Config: c.machine, Timing: sim.DefaultTiming(), Kernel: run},
		sim.WithPolicy(pol), sim.WithGlobal(global), sim.WithParallelism(0))
	if err == nil {
		out.st, err = d.Run()
		out.global = d.Global
	}
	out.end = time.Now()
	out.simulated = out.end.Sub(t1)
	out.err = err
	cellID := tr.newID()
	tr.record("", trace, cellID, "compile", out.start, t1)
	tr.record("", trace, cellID, "sim", t1, out.end)
	tr.record(cellID, trace, parent, "cell", out.start, out.end)
	return out
}

// sweepRound fans every cell out through the pool as one closed batch
// and waits for all of them.
func sweepRound(pool *runpool.Pool, cells []sweepCell, tr *tracer, round int) []cellOut {
	due := time.Now()
	trace := fmt.Sprintf("round-%d", round)
	span := tr.newID()
	futs := make([]*runpool.Future, len(cells))
	for i, c := range cells {
		c := c
		futs[i] = pool.Submit(func() (any, error) { return runCell(c, due, tr, trace, span), nil })
	}
	outs := make([]cellOut, len(cells))
	for i, f := range futs {
		v, err := f.Wait()
		if err != nil {
			outs[i] = cellOut{err: err, due: due, end: time.Now()}
			continue
		}
		outs[i] = v.(cellOut)
	}
	tr.record(span, trace, "", "round", due, time.Now())
	return outs
}

// sweepPhase is the aggregate of the rounds of one timed phase.
type sweepPhase struct {
	rounds        int
	cells, failed int
	wall          time.Duration
	service, done []float64 // per-cell ms: compile+sim, and since due
	compile, sim  time.Duration
	totals        simTotals
	fig7          fig7Pairs
	digests       []string
	rt            runtimeSample
}

// runSweepPhase runs whole rounds until seconds have passed, checking
// every round's outputs as it completes.
func runSweepPhase(rep *report, pool *runpool.Pool, cells []sweepCell, seconds float64, tr *tracer) *sweepPhase {
	ph := &sweepPhase{fig7: fig7Pairs{}}
	rt0 := readRuntime()
	t0 := time.Now()
	for ph.rounds == 0 || time.Since(t0).Seconds() < seconds {
		outs := sweepRound(pool, cells, tr, ph.rounds)
		ph.rounds++
		ph.digests = append(ph.digests, checkRound(rep, cells, outs))
		var static map[string]int64
		if ph.rounds == 1 {
			static = map[string]int64{}
		}
		for i, o := range outs {
			ph.cells++
			if o.err != nil {
				ph.failed++
				continue
			}
			ph.service = append(ph.service, ms(o.end.Sub(o.start)))
			ph.done = append(ph.done, ms(o.end.Sub(o.due)))
			ph.compile += o.compile
			ph.sim += o.simulated
			ph.totals.add(o.st, cells[i].machine.NumSMs)
			if static != nil && cells[i].w.RegisterLimited {
				switch cells[i].policy {
				case "static":
					static[cells[i].w.Name] = o.st.Cycles
				case "regmutex":
					ph.fig7.add(cells[i].w.Name, static[cells[i].w.Name], o.st.Cycles)
				}
			}
		}
	}
	ph.wall = time.Since(t0)
	ph.rt = readRuntime().sub(rt0)
	for i, d := range ph.digests {
		rep.check(d == ph.digests[0], "round %d stats digest %s differs from round 0's %s", i, d, ph.digests[0])
	}
	return ph
}

// checkRound verifies one round: no failed cell, no out-of-bounds
// access, and every policy's final global memory equal to the static
// run's of the same kernel. It returns the digest of the round's Stats.
func checkRound(rep *report, cells []sweepCell, outs []cellOut) string {
	h := fnv.New64a()
	var static []uint64
	for i, o := range outs {
		c := cells[i]
		if o.err != nil {
			rep.check(false, "%s/%s failed: %v", c.w.Name, c.policy, o.err)
			continue
		}
		rep.check(o.st.OOBAccesses == 0, "%s/%s: %d out-of-bounds accesses", c.w.Name, c.policy, o.st.OOBAccesses)
		if c.policy == "static" {
			static = o.global
		} else {
			rep.check(static != nil && slices.Equal(o.global, static),
				"%s/%s: final global memory differs from the static run's", c.w.Name, c.policy)
		}
		fmt.Fprintf(h, "%s/%s %+v\n", c.w.Name, c.policy, o.st)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func runSweep(cfg runConfig) (*report, error) {
	rep := newReport()
	var setups []float64
	var cells []sweepCell
	var pool *runpool.Pool
	for i := 0; i < sweepSetups; i++ {
		t0 := time.Now()
		cells = buildSweep(cfg.seed)
		pool = runpool.New(0)
		// Warm up with each kernel's static cell, so the heap has grown
		// and lazy set-up is done before the first timed round.
		var warm []sweepCell
		for _, c := range cells {
			if c.policy == "static" {
				warm = append(warm, c)
			}
		}
		for _, o := range sweepRound(pool, warm, nil, 0) {
			if o.err != nil {
				return nil, fmt.Errorf("warm-up: %v", o.err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.e2e["setup_s"] = median(setups)
	rep.stamp["scale"] = sweepScale
	rep.stamp["sms"] = sweepSMs
	rep.stamp["cells_per_round"] = len(cells)
	rep.stamp["pool_workers"] = pool.Workers()

	seconds := cfg.seconds
	var untraced *sweepPhase
	var tr *tracer
	if cfg.trace {
		seconds /= 2
		untraced = runSweepPhase(rep, pool, cells, seconds, nil)
		tr = &tracer{}
	}
	ph := runSweepPhase(rep, pool, cells, seconds, tr)

	rate := func(p *sweepPhase) float64 { return float64(p.totals.instr) / p.wall.Seconds() / 1e6 }
	rep.attempted, rep.failed = ph.cells, ph.failed
	rep.digest = ph.digests[0]
	tail := tailFor(float64(len(cells)) * seconds / 6)
	rep.e2e["peak_rss_mb"] = peakRSSMB()
	rep.e2e["success_share"] = 1 - float64(ph.failed)/float64(ph.cells)
	rep.e2e["sim_minstr_per_s"] = rate(ph)
	ph.fig7.put(rep)
	rep.e2e["p50_ms_lo"] = median(ph.service)
	rep.e2e["tail_ms_lo"] = quantile(ph.service, tail/100)
	rep.e2e["p50_ms_hi"] = median(ph.done)
	rep.e2e["tail_ms_hi"] = quantile(ph.done, tail/100)
	rep.e2e["max_rate_under_slo"] = float64(ph.cells-ph.failed) / ph.wall.Seconds()
	rep.stamp["rounds"] = ph.rounds
	rep.stamp["tail_pct"] = tail
	rep.stamp["tail_samples"] = len(ph.service)
	rep.stamp["tail_beyond"] = beyond(ph.service, tail/100)

	rounds := float64(ph.rounds)
	ph.totals.put(rep, ph.sim, rounds)
	rep.layers["compile.busy_s"] = ph.compile.Seconds() / rounds
	rep.layers["compile.calls"] = float64(len(cells))
	bs, err := bsMatches(1)
	if err != nil {
		return nil, err
	}
	rep.layers["compile.bs_match"] = float64(bs)
	rep.layers["runtime.gc_cpu_s"] = ph.rt.gcCPU / rounds
	rep.layers["runtime.alloc_mb"] = ph.rt.allocBytes / rounds / (1 << 20)
	rep.layers["loadgen.samples"] = float64(ph.cells)
	if cfg.trace {
		rep.spans = tr.all()
		addSelfTimes(rep, rep.spans)
		if u := rate(untraced); u > 0 {
			rep.layers["trace.overhead_pct"] = 100 * (u - rate(ph)) / u
		}
	}
	return rep, nil
}
