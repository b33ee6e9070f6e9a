package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"regmutex/internal/core"
	"regmutex/internal/isa"
	"regmutex/internal/occupancy"
)

// barKernel is a tiny barrier kernel used to exercise policy edge cases.
func barKernel(regs int) *isa.Kernel {
	b := isa.NewBuilder("barpol", regs, 1, 64)
	b.MovSpecial(0, isa.SpecTID)
	b.Mov(1, isa.Imm(0))
	b.Mov(2, isa.Imm(4))
	b.Label("top")
	b.IAdd(isa.Reg(regs-1), isa.R(0), isa.Imm(1)) // touch the top register
	b.IAdd(1, isa.R(1), isa.R(isa.Reg(regs-1)))
	b.StShared(isa.R(0), 0, isa.R(1))
	b.Bar()
	b.LdShared(3, isa.R(0), 0)
	b.IAdd(1, isa.R(1), isa.R(3))
	b.ISub(2, isa.R(2), isa.Imm(1))
	b.Setp(0, isa.CmpGT, isa.R(2), isa.Imm(0))
	b.BraIf(0, "top")
	b.StGlobal(isa.R(0), 128, isa.R(1))
	b.Exit()
	k := b.MustKernel()
	k.GridCTAs = 4
	k.SharedMemWords = 64
	k.GlobalMemWords = 256
	return k
}

func TestOWFBarrierRelease(t *testing.T) {
	// An owner must drop the pair lock at a barrier; otherwise this
	// kernel (both pair members need reg >= threshold every iteration,
	// with a barrier between) would deadlock.
	cfg := smallCfg()
	cfg.NumSMs = 1
	k := barKernel(16)
	pre, err := core.Prepare(k)
	if err != nil {
		t.Fatal(err)
	}
	st := &owfState{threshold: 12, owner: make([]int, cfg.MaxWarpsPerSM/2+1)}
	_ = st
	d, err := New(DeviceSpec{Config: cfg, Timing: DefaultTiming(), Kernel: pre},
		WithPolicy(NewOWFPolicy(cfg, 12)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(); err != nil {
		t.Fatalf("OWF deadlocked on a barrier kernel: %v", err)
	}
}

func TestOWFStateMachine(t *testing.T) {
	s := &owfState{threshold: 10, owner: make([]int, 25)}
	touchHigh := isa.NewInstr(isa.OpMov)
	touchHigh.Dst = 12
	touchHigh.Srcs[0] = isa.Imm(1)
	touchLow := isa.NewInstr(isa.OpMov)
	touchLow.Dst = 2
	touchLow.Srcs[0] = isa.Imm(1)

	w0 := &Warp{Widx: 0}
	w1 := &Warp{Widx: 1} // same pair as w0
	w2 := &Warp{Widx: 2} // different pair

	if !s.TryIssue(w0, &touchLow, 0) {
		t.Fatal("low access must not block")
	}
	if !s.TryIssue(w0, &touchHigh, 0) {
		t.Fatal("first high access acquires the pair lock")
	}
	if s.TryIssue(w1, &touchHigh, 0) {
		t.Fatal("partner must block while the owner lives")
	}
	if !s.TryIssue(w1, &touchLow, 0) {
		t.Fatal("partner's low accesses must proceed")
	}
	if !s.TryIssue(w2, &touchHigh, 0) {
		t.Fatal("other pairs are independent")
	}
	if s.Priority(w0) >= s.Priority(w1) {
		t.Error("owner warp must have scheduling priority")
	}
	s.OnWarpExit(w0)
	if !s.TryIssue(w1, &touchHigh, 0) {
		t.Fatal("lock must free at owner exit")
	}
}

func TestPairedStateMachine(t *testing.T) {
	s := &pairedState{holder: make([]int, 25)}
	acq := isa.NewInstr(isa.OpAcq)
	rel := isa.NewInstr(isa.OpRel)
	w0, w1 := &Warp{Widx: 6}, &Warp{Widx: 7}

	if !s.TryIssue(w0, &acq, 0) {
		t.Fatal("free pair must grant")
	}
	if !s.TryIssue(w0, &acq, 0) {
		t.Fatal("redundant self-acquire is a no-op success")
	}
	if s.TryIssue(w1, &acq, 0) {
		t.Fatal("partner must wait")
	}
	if !s.TryIssue(w1, &rel, 0) {
		t.Fatal("redundant release never blocks")
	}
	if !s.TryIssue(w0, &rel, 0) {
		t.Fatal("release never blocks")
	}
	if !s.TryIssue(w1, &acq, 0) {
		t.Fatal("partner acquires after release")
	}
	a, ok, r := s.Counters()
	if a != 4 || ok != 3 || r != 1 {
		t.Errorf("counters = %d/%d/%d", a, ok, r)
	}
}

func TestBlockingAcquireFIFO(t *testing.T) {
	// The blocking variant hands sections to the longest waiter.
	s := &regmutexState{srp: core.NewSRP(8, 1), blocking: true}
	acq := isa.NewInstr(isa.OpAcq)
	rel := isa.NewInstr(isa.OpRel)
	w0, w1, w2 := &Warp{Widx: 0}, &Warp{Widx: 1}, &Warp{Widx: 2}

	if !s.TryIssue(w0, &acq, 0) {
		t.Fatal("first acquire")
	}
	if s.TryIssue(w1, &acq, 0) || s.TryIssue(w2, &acq, 0) {
		t.Fatal("one section: others must wait")
	}
	s.TryIssue(w0, &rel, 0)
	// w2 retries first but w1 queued earlier; FIFO says w1 wins.
	if s.TryIssue(w2, &acq, 0) {
		t.Fatal("w2 must not jump the queue")
	}
	if !s.TryIssue(w1, &acq, 0) {
		t.Fatal("w1 is the head of the queue")
	}
	s.TryIssue(w1, &rel, 0)
	if !s.TryIssue(w2, &acq, 0) {
		t.Fatal("w2's turn after w1")
	}
}

func TestRFVAllocationLifecycle(t *testing.T) {
	cfg := smallCfg()
	k := memPeakKernel("rfvlife", 24, 256, 2, 3)
	pre, err := core.Prepare(k)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(DeviceSpec{Config: cfg, Timing: DefaultTiming(), Kernel: pre},
		WithPolicy(NewRFVPolicy(cfg)))
	if err != nil {
		t.Fatal(err)
	}
	st, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Renaming must have freed registers: total frees > 0 and every
	// warp's rows returned (free pool back to capacity).
	if st.Releases == 0 {
		t.Error("RFV never freed a register")
	}
	for _, sm := range d.sms {
		rs, ok := sm.policy.(*rfvState)
		if !ok {
			t.Fatal("unexpected policy state type")
		}
		if rs.freeRows != cfg.WarpRegisters() {
			t.Errorf("SM%d leaked rows: %d free of %d", sm.id, rs.freeRows, cfg.WarpRegisters())
		}
	}
}

func TestLooseRoundRobinDeterminism(t *testing.T) {
	cfg := smallCfg()
	k := memPeakKernel("rr", 24, 256, 3, 4)
	pre, err := core.Prepare(k)
	if err != nil {
		t.Fatal(err)
	}
	timing := DefaultTiming()
	timing.LooseRoundRobin = true
	var prev int64 = -1
	for i := 0; i < 2; i++ {
		d, err := New(DeviceSpec{Config: cfg, Timing: timing, Kernel: pre})
		if err != nil {
			t.Fatal(err)
		}
		st, err := d.Run()
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && st.Cycles != prev {
			t.Errorf("round-robin runs not deterministic: %d vs %d", st.Cycles, prev)
		}
		prev = st.Cycles
	}
}

// Property: the RegMutex transform is semantics-preserving — on random
// peak-shaped kernels, static and RegMutex runs produce identical global
// memory.
func TestTransformEquivalenceProperty(t *testing.T) {
	cfg := smallCfg()
	cfg.NumSMs = 1
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		regs := 21 + rng.Intn(10)  // 21..30
		iters := 2 + rng.Intn(4)   // 2..5
		peakAt := 12 + rng.Intn(6) // first peak register
		width := regs - peakAt     // peak width
		threads := 32 * (1 + rng.Intn(4))

		b := isa.NewBuilder("prop", regs, 1, threads)
		b.MovSpecial(0, isa.SpecTID)
		b.MovSpecial(1, isa.SpecCTAID)
		b.IMad(2, isa.R(1), isa.Imm(int64(threads)), isa.R(0))
		b.And(2, isa.R(2), isa.Imm(1023))
		b.Mov(3, isa.Imm(0))
		b.Mov(4, isa.Imm(int64(iters)))
		for r := 5; r < peakAt; r++ {
			b.IAdd(isa.Reg(r), isa.R(0), isa.Imm(int64(r)))
		}
		b.Label("top")
		b.LdGlobal(5, isa.R(2), 0)
		for i := 0; i < width; i++ {
			b.IAdd(isa.Reg(peakAt+i), isa.R(5), isa.Imm(int64(i*3+1)))
		}
		for i := 0; i < width; i++ {
			b.IAdd(3, isa.R(3), isa.R(isa.Reg(peakAt+i)))
		}
		b.IAdd(2, isa.R(2), isa.Imm(int64(threads)))
		b.And(2, isa.R(2), isa.Imm(1023))
		b.ISub(4, isa.R(4), isa.Imm(1))
		b.Setp(0, isa.CmpGT, isa.R(4), isa.Imm(0))
		b.BraIf(0, "top")
		for r := 5; r < peakAt; r++ {
			b.IAdd(3, isa.R(3), isa.R(isa.Reg(r)))
		}
		b.IMad(5, isa.R(1), isa.Imm(int64(threads)), isa.R(0))
		b.StGlobal(isa.R(5), 2048, isa.R(3))
		b.Exit()
		k, err := b.Kernel()
		if err != nil {
			return false
		}
		k.GridCTAs = 1 + rng.Intn(3)
		k.GlobalMemWords = 2048 + 1024

		input := make([]uint64, k.GlobalMemWords)
		for i := range input {
			input[i] = uint64(rng.Intn(4096))
		}

		pre, err := core.Prepare(k)
		if err != nil {
			return false
		}
		d1, err := New(DeviceSpec{Config: cfg, Timing: DefaultTiming(), Kernel: pre},
			WithGlobal(append([]uint64(nil), input...)))
		if err != nil {
			return false
		}
		if _, err := d1.Run(); err != nil {
			return false
		}

		bs := peakAt // force a split right at the peak boundary
		res, err := core.Transform(k, core.Options{Config: cfg, ForceEs: k.AllocRegs() - bs})
		if err != nil {
			// Some random shapes are legitimately infeasible; that is
			// not an equivalence failure.
			return true
		}
		d2, err := New(DeviceSpec{Config: cfg, Timing: DefaultTiming(), Kernel: res.Kernel},
			WithPolicy(NewRegMutexPolicy(cfg)), WithGlobal(append([]uint64(nil), input...)))
		if err != nil {
			return false
		}
		if _, err := d2.Run(); err != nil {
			return false
		}
		for i := range d1.Global {
			if d1.Global[i] != d2.Global[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestDeviceOOBAccounting(t *testing.T) {
	b := isa.NewBuilder("oob", 4, 1, 32)
	b.Mov(0, isa.Imm(1<<40)) // way out of bounds
	b.LdGlobal(1, isa.R(0), 0)
	b.StGlobal(isa.R(0), 7, isa.R(1))
	b.Exit()
	k := b.MustKernel()
	k.GridCTAs = 1
	k.GlobalMemWords = 64
	pre, err := core.Prepare(k)
	if err != nil {
		t.Fatal(err)
	}
	cfg := occupancy.GTX480()
	cfg.NumSMs = 1
	d, err := New(DeviceSpec{Config: cfg, Timing: DefaultTiming(), Kernel: pre})
	if err != nil {
		t.Fatal(err)
	}
	st, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.OOBAccesses == 0 {
		t.Error("out-of-bounds accesses were not counted")
	}
}

func TestDeviceEvents(t *testing.T) {
	cfg := smallCfg()
	cfg.NumSMs = 1
	k := memPeakKernel("events", 24, 256, 2, 2)
	res, err := core.Transform(k, core.Options{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	d, err := New(DeviceSpec{Config: cfg, Timing: DefaultTiming(), Kernel: res.Kernel},
		WithPolicy(NewRegMutexPolicy(cfg)),
		WithObserver(ObserverFuncs{Event: func(ev Event) { counts[ev.Kind]++ }}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if counts["cta-retire"] != k.GridCTAs {
		t.Errorf("cta-retire events = %d, want %d", counts["cta-retire"], k.GridCTAs)
	}
	if counts["acquire"] == 0 || counts["release"] == 0 {
		t.Errorf("missing acquire/release events: %v", counts)
	}
	if counts["acquire"] != counts["release"] {
		t.Errorf("acquires (%d) != releases (%d)", counts["acquire"], counts["release"])
	}
}
