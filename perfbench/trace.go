package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"regmutex/internal/obs"
)

// tracer records spans around the benchmark's calls into each layer and
// keeps them in memory until the run ends. A nil tracer records nothing,
// which is how the untraced half and every --trace 0 run execute.
type tracer struct {
	mu    sync.Mutex
	seq   int
	spans []obs.Span
}

// newID mints a span ID; "" from a nil tracer.
func (t *tracer) newID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	return fmt.Sprintf("b-%d", t.seq)
}

// record stores one finished span under trace, parented on parent.
func (t *tracer) record(id, trace, parent, stage string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == "" {
		t.seq++
		id = fmt.Sprintf("b-%d", t.seq)
	}
	t.spans = append(t.spans, obs.Span{Trace: trace, ID: id, Parent: parent,
		Stage: stage, Proc: "perfbench", Start: start, End: end})
}

func (t *tracer) all() []obs.Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]obs.Span(nil), t.spans...)
}

// stageLayer charges each span stage to the layer whose code runs
// during its self time. The daemon's "run" stage is compile plus
// simulation behind the pool; seen from outside it is charged to sim.
var stageLayer = map[string]string{
	"round":          "loadgen",
	"job":            "loadgen",
	"cell":           "memo",
	"compile":        "compile",
	"sim":            "sim",
	"submit":         "service",
	"router.submit":  "router",
	obs.StageAccept:  "service",
	obs.StageQueue:   "service",
	obs.StageStream:  "service",
	obs.StageRun:     "sim",
	obs.StageRoute:   "router",
	obs.StageAttempt: "router",
	obs.StageBackoff: "router",
}

// selfTimes sums, per layer, each span's duration minus the part of it
// its child spans cover.
func selfTimes(spans []obs.Span) map[string]float64 {
	children := map[string][]obs.Span{}
	for _, s := range spans {
		if s.Parent != "" {
			children[s.Trace+"\x00"+s.Parent] = append(children[s.Trace+"\x00"+s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		layer, ok := stageLayer[s.Stage]
		if !ok || s.Dur() <= 0 {
			continue
		}
		covered := coverage(s, children[s.Trace+"\x00"+s.ID])
		out[layer] += (s.Dur() - covered).Seconds()
	}
	return out
}

// coverage is the length of the union of the children's intervals
// clipped to the parent's.
func coverage(parent obs.Span, kids []obs.Span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// addSelfTimes copies per-layer self times into the report.
func addSelfTimes(rep *report, spans []obs.Span) {
	st := selfTimes(spans)
	for _, l := range []string{"sim", "compile", "memo", "service", "router", "loadgen"} {
		rep.layers["self."+l+"_s"] = st[l]
	}
}
