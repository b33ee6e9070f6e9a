package sim

// This file is the parallel-across-SMs engine: a persistent pool of
// workers, each owning a contiguous shard of SMs, stepping them
// concurrently between the per-cycle barriers of Device.RunContext.
//
// The determinism contract (DESIGN.md §11): Stats, traces, and audit
// results are byte-identical at every worker count. It holds because
// nothing an SM does during a cycle is visible outside the SM until the
// barrier:
//
//   - global-memory stores are buffered per SM and committed at the
//     barrier in SM order (loads always read the cycle-start state);
//   - CTA retirement and grid backfill are deferred per SM and processed
//     at the barrier in SM order (Device.finishCycle);
//   - observer callbacks (events and per-slot stall attribution) are
//     buffered per SM and replayed at the barrier in SM order;
//   - everything else an SM touches while stepping — warps, scheduler
//     state, policy state, stat counters, event heaps — is SM-local.
//
// Workers communicate with the coordinator over channels, whose
// happens-before edges make the protocol race-detector-clean; the cycle
// barrier is the pair of channel rounds in runCycle.

// smPool is the persistent worker pool. It lives for one RunContext call
// (created when Par > 1, stopped on return).
type smPool struct {
	d      *Device
	shards [][]*SM
	work   []chan int64 // per-worker cycle release, carrying the cycle number
	done   chan int     // per-worker issue counts back to the coordinator
}

// newSMPool starts one goroutine per worker over contiguous SM shards
// (sized within ±1 SM of each other) and switches every SM's observer
// path to per-cycle buffering when an observer is attached.
func newSMPool(d *Device, workers int) *smPool {
	p := &smPool{d: d, done: make(chan int, workers)}
	n := len(d.sms)
	base, rem := n/workers, n%workers
	start := 0
	for i := 0; i < workers; i++ {
		size := base
		if i < rem {
			size++
		}
		shard := d.sms[start : start+size]
		start += size
		ch := make(chan int64, 1)
		p.shards = append(p.shards, shard)
		p.work = append(p.work, ch)
		go p.worker(shard, ch)
	}
	if d.obs != nil {
		for _, sm := range d.sms {
			sm.buffered = true
		}
	}
	return p
}

func (p *smPool) worker(shard []*SM, work <-chan int64) {
	for now := range work {
		issued := 0
		for _, sm := range shard {
			if sm.wakeAt <= now {
				issued += sm.step(now)
			}
		}
		p.done <- issued
	}
}

// runCycle steps every due SM concurrently and returns the total issue
// count once all workers reach the barrier. On return the coordinator
// owns the machine again (the channel rounds order all worker writes
// before it).
func (p *smPool) runCycle(now int64) int {
	for _, ch := range p.work {
		ch <- now
	}
	total := 0
	for range p.work {
		total += <-p.done
	}
	return total
}

// stop shuts the workers down and restores direct observer emission.
func (p *smPool) stop() {
	for _, ch := range p.work {
		close(ch)
	}
	for _, sm := range p.d.sms {
		sm.buffered = false
	}
}
