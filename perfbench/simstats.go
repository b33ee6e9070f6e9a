package main

import (
	"math"
	"time"

	"regmutex/internal/harness"
	"regmutex/internal/sim"
)

// paperFig7Reduction is the paper's average execution-cycle reduction
// on the Figure 7 set (section IV-A).
const paperFig7Reduction = 13.0

// simTotals accumulates the simulated statistics of finished runs.
type simTotals struct {
	instr, cycles, smCycles, slots int64
	stall                          sim.StallBreakdown
	acqAttempts, acqSuccesses      uint64
	occ                            []float64
}

func (t *simTotals) add(st sim.Stats, numSMs int) {
	t.instr += st.Instructions
	t.cycles += st.Cycles
	t.smCycles += st.Cycles * int64(numSMs)
	t.slots += st.SchedSlots
	for i, v := range st.Stall {
		t.stall[i] += v
	}
	t.acqAttempts += st.AcquireAttempts
	t.acqSuccesses += st.AcquireSuccesses
	t.occ = append(t.occ, st.AvgOccupancyWarps)
}

// put reports the simulated per-layer metrics, with instruction and
// cycle counts divided by per (the number of identical rounds), and
// the host-time ratios over busy.
func (t *simTotals) put(rep *report, busy time.Duration, per float64) {
	rep.layers["sim.busy_s"] = busy.Seconds() / per
	rep.layers["sim.instructions"] = float64(t.instr) / per
	rep.layers["sim.cycles"] = float64(t.cycles) / per
	if t.instr > 0 {
		rep.layers["sim.ns_per_instr"] = float64(busy.Nanoseconds()) / float64(t.instr)
	}
	if t.slots > 0 {
		rep.layers["sim.ns_per_slot"] = float64(busy.Nanoseconds()) / float64(t.slots)
		share := func(c sim.StallCause) float64 { return float64(t.stall[c]) / float64(t.slots) }
		rep.layers["sim.stall.scoreboard"] = share(sim.CauseScoreboard)
		rep.layers["sim.stall.memory"] = share(sim.CauseMemory)
		rep.layers["sim.stall.acquire"] = share(sim.CauseAcquire)
		rep.layers["sim.stall.barrier"] = share(sim.CauseBarrier)
		rep.layers["sim.stall.no_warp"] = share(sim.CauseNoWarp)
		rep.layers["sim.stall.empty"] = share(sim.CauseEmpty)
	}
	if t.smCycles > 0 {
		rep.layers["sim.ipc"] = float64(t.instr) / float64(t.smCycles)
	}
	rep.layers["sim.occupancy_warps"] = mean(t.occ)
	rep.layers["sim.acquire_success"] = 1
	if t.acqAttempts > 0 {
		rep.layers["sim.acquire_success"] = float64(t.acqSuccesses) / float64(t.acqAttempts)
	}
}

// fig7Pairs collects static and regmutex cycle counts per Figure 7
// kernel, one pair per finished run of that kernel.
type fig7Pairs map[string][][2]int64

func (p fig7Pairs) add(kernel string, static, regmutex int64) {
	if static > 0 && regmutex > 0 {
		p[kernel] = append(p[kernel], [2]int64{static, regmutex})
	}
}

// put reports regmutex_speedup (geomean over kernels of static over
// regmutex cycles) and paper_err_pp (the distance of the average cycle
// reduction from the paper's 13%), each kernel weighted once however
// often it ran.
func (p fig7Pairs) put(rep *report) {
	var speedups, reductions []float64
	for _, k := range sortedKeys(p) {
		var sp, red []float64
		for _, c := range p[k] {
			sp = append(sp, float64(c[0])/float64(c[1]))
			red = append(red, 100*(1-float64(c[1])/float64(c[0])))
		}
		speedups = append(speedups, geomean(sp))
		reductions = append(reductions, mean(red))
	}
	rep.e2e["regmutex_speedup"] = geomean(speedups)
	rep.e2e["paper_err_pp"] = math.Abs(mean(reductions) - paperFig7Reduction)
	rep.stamp["fig7_kernels"] = len(p)
	rep.stamp["fig7_avg_reduction_pct"] = mean(reductions)
}

// bsMatches counts the Table I kernels whose |Bs| the compiler's |Es|
// heuristic reproduces.
func bsMatches(scale int) (int, error) {
	rows, err := harness.Table1(harness.Options{Scale: scale, Jobs: 1})
	if err != nil {
		return 0, err
	}
	n := 0
	for _, r := range rows {
		if r.Matches {
			n++
		}
	}
	return n, nil
}
