// Benchmarks that regenerate every table and figure of the paper's
// evaluation (section IV). Each benchmark runs the corresponding harness
// experiment and reports the figure's headline quantity as a custom
// metric, so
//
//	go test -bench=. -benchmem
//
// doubles as a miniature reproduction run. Absolute numbers come from the
// bundled simulator, not the authors' GPGPU-Sim testbed; the shapes (who
// wins, by roughly what factor) are what to compare. cmd/paperbench runs
// the same experiments at full scale with the paper-style tables.
package regmutex_test

import (
	"testing"

	"regmutex"
	"regmutex/internal/core"
	"regmutex/internal/harness"
	"regmutex/internal/sim"
	"regmutex/internal/workloads"
)

// benchOpts shrinks grids so a full -bench=. pass stays in CI budgets
// while preserving every mechanism.
func benchOpts() harness.Options { return harness.Options{Scale: 8, Seed: 42, NumSMs: 4} }

func BenchmarkTable1(b *testing.B) {
	matches := 0
	for i := 0; i < b.N; i++ {
		rows, err := harness.Table1(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		matches = 0
		for _, r := range rows {
			if r.Matches {
				matches++
			}
		}
	}
	b.ReportMetric(float64(matches), "tableI-matches/16")
}

func BenchmarkFig1(b *testing.B) {
	var instrs int
	for i := 0; i < b.N; i++ {
		rows, err := harness.Fig1(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		instrs = 0
		for _, r := range rows {
			instrs += len(r.Trace)
		}
	}
	b.ReportMetric(float64(instrs), "traced-instrs")
}

func BenchmarkFig2(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		tl, err := harness.Fig2()
		if err != nil {
			b.Fatal(err)
		}
		speedup = float64(tl.StaticCycles) / float64(tl.RegMutexCycles)
	}
	b.ReportMetric(speedup, "overlap-speedup-x")
}

func BenchmarkFig7(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		rows, err := harness.Fig7(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		avg = 0
		for _, r := range rows {
			avg += r.ReductionPct
		}
		avg /= float64(len(rows))
	}
	b.ReportMetric(avg, "avg-cycle-reduction-%")
}

func BenchmarkFig8(b *testing.B) {
	var noRM, rm float64
	for i := 0; i < b.N; i++ {
		rows, err := harness.Fig8(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		noRM, rm = 0, 0
		for _, r := range rows {
			noRM += r.IncreaseNoRM
			rm += r.IncreaseRM
		}
		noRM /= float64(len(rows))
		rm /= float64(len(rows))
	}
	b.ReportMetric(noRM, "halfRF-increase-noRM-%")
	b.ReportMetric(rm, "halfRF-increase-RM-%")
}

func BenchmarkFig9a(b *testing.B) {
	var owf, rfv, rm float64
	for i := 0; i < b.N; i++ {
		rows, err := harness.Fig9a(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		owf, rfv, rm = 0, 0, 0
		for _, r := range rows {
			owf += 100 * (1 - float64(r.OWF)/float64(r.Baseline))
			rfv += 100 * (1 - float64(r.RFV)/float64(r.Baseline))
			rm += 100 * (1 - float64(r.RegMutex)/float64(r.Baseline))
		}
		owf /= float64(len(rows))
		rfv /= float64(len(rows))
		rm /= float64(len(rows))
	}
	b.ReportMetric(owf, "owf-reduction-%")
	b.ReportMetric(rfv, "rfv-reduction-%")
	b.ReportMetric(rm, "regmutex-reduction-%")
}

func BenchmarkFig9b(b *testing.B) {
	var rfv, rm float64
	for i := 0; i < b.N; i++ {
		rows, err := harness.Fig9b(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		rfv, rm = 0, 0
		for _, r := range rows {
			rfv += 100 * (float64(r.RFV)/float64(r.Baseline) - 1)
			rm += 100 * (float64(r.RegMutex)/float64(r.Baseline) - 1)
		}
		rfv /= float64(len(rows))
		rm /= float64(len(rows))
	}
	b.ReportMetric(rfv, "rfv-increase-%")
	b.ReportMetric(rm, "regmutex-increase-%")
}

func BenchmarkFig10(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		rows, err := harness.EsSweep(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		best = 0
		for _, r := range rows {
			for _, p := range r.Points {
				if p != nil && p.ReductionPct > best {
					best = p.ReductionPct
				}
			}
		}
	}
	b.ReportMetric(best, "best-sweep-reduction-%")
}

func BenchmarkFig11(b *testing.B) {
	var minRate float64
	for i := 0; i < b.N; i++ {
		rows, err := harness.EsSweep(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		minRate = 1
		for _, r := range rows {
			for _, p := range r.Points {
				if p != nil && p.AcquireRate < minRate {
					minRate = p.AcquireRate
				}
			}
		}
	}
	b.ReportMetric(100*minRate, "min-acquire-success-%")
}

func BenchmarkFig12(b *testing.B) {
	var def, paired float64
	for i := 0; i < b.N; i++ {
		rows, err := harness.Fig12a(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		def, paired = 0, 0
		for _, r := range rows {
			def += 100 * (1 - float64(r.DefaultCycles)/float64(r.BaselineCycles))
			paired += 100 * (1 - float64(r.PairedCycles)/float64(r.BaselineCycles))
		}
		def /= float64(len(rows))
		paired /= float64(len(rows))
	}
	b.ReportMetric(def, "default-reduction-%")
	b.ReportMetric(paired, "paired-reduction-%")
}

func BenchmarkFig13(b *testing.B) {
	var avgDef, avgPaired float64
	for i := 0; i < b.N; i++ {
		rows, err := harness.Fig13(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		avgDef, avgPaired = 0, 0
		for _, r := range rows {
			avgDef += r.DefaultRate
			avgPaired += r.PairedRate
		}
		avgDef /= float64(len(rows))
		avgPaired /= float64(len(rows))
	}
	b.ReportMetric(100*avgDef, "default-acq-success-%")
	b.ReportMetric(100*avgPaired, "paired-acq-success-%")
}

// ---------------------------------------------------------------------
// Ablations of the design choices DESIGN.md calls out.
// ---------------------------------------------------------------------

// benchWorkloadRun compiles bfs and runs it under RegMutex with tweaks.
func ablationRun(b *testing.B, timing sim.Timing, blocking bool, noCompaction bool) int64 {
	b.Helper()
	machine := regmutex.GTX480()
	machine.NumSMs = 4
	w, err := workloads.ByName("particlefilter")
	if err != nil {
		b.Fatal(err)
	}
	k := w.Build(8)
	res, err := core.Transform(k, core.Options{Config: machine, NoCompaction: noCompaction})
	if err != nil {
		b.Fatal(err)
	}
	pol := sim.NewRegMutexPolicy(machine)
	pol.Blocking = blocking
	d, err := sim.New(sim.DeviceSpec{Config: machine, Timing: timing, Kernel: res.Kernel},
		sim.WithPolicy(pol), sim.WithGlobal(w.Input(k, 42)))
	if err != nil {
		b.Fatal(err)
	}
	st, err := d.Run()
	if err != nil {
		b.Fatal(err)
	}
	return st.Cycles
}

// BenchmarkAblationScheduler compares greedy-then-oldest scheduling (the
// GPGPU-Sim default the paper uses) with loose round-robin.
func BenchmarkAblationScheduler(b *testing.B) {
	for _, bb := range []struct {
		name string
		rr   bool
	}{{"gto", false}, {"loose-rr", true}} {
		b.Run(bb.name, func(b *testing.B) {
			t := sim.DefaultTiming()
			t.LooseRoundRobin = bb.rr
			var cycles int64
			for i := 0; i < b.N; i++ {
				cycles = ablationRun(b, t, false, false)
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkAblationRetry compares the paper's retry-at-issue acquire with
// a FIFO blocking hand-off.
func BenchmarkAblationRetry(b *testing.B) {
	for _, bb := range []struct {
		name     string
		blocking bool
	}{{"retry", false}, {"blocking-fifo", true}} {
		b.Run(bb.name, func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				cycles = ablationRun(b, sim.DefaultTiming(), bb.blocking, false)
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkAblationCompaction shows what section III-A4 buys: without
// index compaction, values stuck in the extended set keep it held longer.
func BenchmarkAblationCompaction(b *testing.B) {
	for _, bb := range []struct {
		name string
		off  bool
	}{{"compaction-on", false}, {"compaction-off", true}} {
		b.Run(bb.name, func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				cycles = ablationRun(b, sim.DefaultTiming(), false, bb.off)
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// ---------------------------------------------------------------------
// Microbenchmarks of the core structures.
// ---------------------------------------------------------------------

func BenchmarkSRPAcquireRelease(b *testing.B) {
	s := core.NewSRP(48, 26)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := i % 26
		s.Acquire(w)
		s.Release(w)
	}
}

func BenchmarkTransform(b *testing.B) {
	w, err := workloads.ByName("dwt2d")
	if err != nil {
		b.Fatal(err)
	}
	k := w.Build(8)
	machine := regmutex.GTX480()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Transform(k, core.Options{Config: machine}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulatedCycles(b *testing.B) {
	// Simulator throughput: simulated cycles per wall second.
	machine := regmutex.GTX480()
	machine.NumSMs = 4
	w, err := workloads.ByName("mriq")
	if err != nil {
		b.Fatal(err)
	}
	k := w.Build(8)
	pre, err := core.Prepare(k)
	if err != nil {
		b.Fatal(err)
	}
	var total int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := sim.New(sim.DeviceSpec{Config: machine, Timing: sim.DefaultTiming(), Kernel: pre},
			sim.WithGlobal(w.Input(k, 42)))
		if err != nil {
			b.Fatal(err)
		}
		st, err := d.Run()
		if err != nil {
			b.Fatal(err)
		}
		total += st.Cycles
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "simcycles/s")
}

// BenchmarkEnergy prices the half-RF + RegMutex configuration with the
// register file energy model (the paper's performance-per-dollar claim).
func BenchmarkEnergy(b *testing.B) {
	var save, cost float64
	for i := 0; i < b.N; i++ {
		rows, err := harness.Energy(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		save, cost = 0, 0
		for _, r := range rows {
			save += r.EnergySavePct
			cost += r.CycleCostPct
		}
		save /= float64(len(rows))
		cost /= float64(len(rows))
	}
	b.ReportMetric(save, "rf-energy-save-%")
	b.ReportMetric(cost, "cycle-cost-%")
}

// BenchmarkGenerality reruns the pipeline on the Kepler-class machine.
func BenchmarkGenerality(b *testing.B) {
	var active int
	for i := 0; i < b.N; i++ {
		rows, err := harness.Generality(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		active = 0
		for _, r := range rows {
			if !r.Disabled {
				active++
			}
		}
	}
	b.ReportMetric(float64(active), "kernels-still-limited")
}
