// Command perfbench is the repository's benchmark: one process runs one
// named workload end to end against the simulator, the daemon and the
// router fleet, checks every output, and prints its metrics as the last
// line of standard output.
//
//	go run . --workload sweep --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// once untraced and once traced, prints the per-layer metrics and the
// tracing overhead, and writes the traced half as a Chrome trace under
// .bench_build/. README.md records why each workload exists and which
// end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"regmutex/internal/obs"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the simulator, daemon or fleet sees. Every
// workload reports every one; README.md says what each reads as on
// each workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"success_share", "share"},
	{"sim_minstr_per_s", "Minstr/s"},
	{"regmutex_speedup", "x"},
	{"paper_err_pp", "pp"},
	{"p50_ms_lo", "ms"},
	{"p50_ms_hi", "ms"},
	{"max_rate_under_slo", "1/s"},
}

// perLayer is one entry per layer counter; layers a workload does not
// enter report 0.
var perLayer = []metricDef{
	{"sim.busy_s", "s"},
	{"sim.ns_per_instr", "ns"},
	{"sim.ns_per_slot", "ns"},
	{"sim.instructions", "count"},
	{"sim.cycles", "count"},
	{"sim.ipc", "instr/cycle"},
	{"sim.occupancy_warps", "warps"},
	{"sim.acquire_success", "share"},
	{"sim.stall.scoreboard", "share"},
	{"sim.stall.memory", "share"},
	{"sim.stall.acquire", "share"},
	{"sim.stall.barrier", "share"},
	{"sim.stall.no_warp", "share"},
	{"sim.stall.empty", "share"},
	{"compile.busy_s", "s"},
	{"compile.calls", "count"},
	{"compile.bs_match", "count"},
	{"memo.hit_share", "share"},
	{"memo.len", "count"},
	{"service.submit_us", "us"},
	{"service.queue_wait_ms_p50", "ms"},
	{"service.queue_wait_ms_tail", "ms"},
	{"service.run_ms", "ms"},
	{"service.hit_p50_ms", "ms"},
	{"service.miss_p50_ms", "ms"},
	{"service.refused", "count"},
	{"router.submit_us", "us"},
	{"router.hop_ms", "ms"},
	{"router.affinity_kept", "share"},
	{"router.attempts_per_job", "count"},
	{"router.coalesced_share", "share"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.alloc_mb", "MB"},
	{"loadgen.lag_ms", "ms"},
	{"loadgen.samples", "count"},
	{"self.sim_s", "s"},
	{"self.compile_s", "s"},
	{"self.memo_s", "s"},
	{"self.service_s", "s"},
	{"self.router_s", "s"},
	{"self.loadgen_s", "s"},
	{"trace.overhead_pct", "%"},
	// The tails are end-to-end latencies, reported here without a bound:
	// the p95 of fleet-zipf's millisecond hits spreads 20-30% between
	// runs on a shared 2-core host, more than any bound may allow. Every
	// run's stamp also prints each phase's tail.
	{"e2e.tail_ms_lo", "ms"},
	{"e2e.tail_ms_hi", "ms"},
}

// runConfig is what the command line fixes for one run.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
}

// report is one workload run's outcome.
type report struct {
	e2e       map[string]float64
	layers    map[string]float64
	attempted int
	failed    int
	// errs lists failed output checks; any entry fails the run.
	errs []string
	// invalid says why the run is not a measurement (load generator
	// too late); an invalid run prints no metrics.
	invalid string
	// stamp holds the workload's fixed parameters and the percentile
	// and sample count behind each tail.
	stamp map[string]any
	// digest fingerprints every simulated statistic the run produced.
	digest string
	// spans is the traced half's recording (trace runs only).
	spans []obs.Span
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layers: map[string]float64{}, stamp: map[string]any{}}
}

func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

var workloadsByName = map[string]func(runConfig) (*report, error){
	"sweep":      runSweep,
	"serve-cold": runServeCold,
	"fleet-zipf": runFleetZipf,
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: sweep, serve-cold or fleet-zipf")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 = print per-layer metrics from a traced run")
	flag.Parse()
	fn, ok := workloadsByName[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {sweep|serve-cold|fleet-zipf}, --seconds > 0, --trace 0|1\n")
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1}
	rep, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", *name, err)
		return 1
	}
	stamp := map[string]any{
		"workload":   *name,
		"seed":       *seed,
		"seconds":    *seconds,
		"trace":      *trace,
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
	}
	for k, v := range rep.stamp {
		stamp[k] = v
	}
	printJSON("# stamp", stamp)
	fmt.Printf("# digest %s\n", rep.digest)
	if cfg.trace && len(rep.spans) > 0 {
		path, err := writeTrace(*name, *seed, rep.spans)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: trace: %v\n", err)
			return 1
		}
		fmt.Printf("# chrome trace %s (%d spans)\n", path, len(rep.spans))
	}
	if rep.invalid != "" {
		fmt.Fprintf(os.Stderr, "perfbench %s: invalid run, not a measurement: %s\n", *name, rep.invalid)
		return 3
	}
	defs, vals := endToEnd, rep.e2e
	if cfg.trace {
		defs, vals = perLayer, rep.layers
		vals["e2e.tail_ms_lo"], vals["e2e.tail_ms_hi"] = rep.e2e["tail_ms_lo"], rep.e2e["tail_ms_hi"]
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: len(rep.errs) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		out.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	for _, e := range rep.errs {
		fmt.Fprintf(os.Stderr, "perfbench %s: output check failed: %s\n", *name, e)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

func printJSON(prefix string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Printf("%s %v\n", prefix, v)
		return
	}
	fmt.Printf("%s %s\n", prefix, b)
}

// writeTrace exports the traced half as Chrome-trace JSON under
// .bench_build/ in the working directory.
func writeTrace(workload string, seed uint64, spans []obs.Span) (string, error) {
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("perfbench-%s-%d.trace.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := obs.WriteChromeTrace(f, obs.SpanEvents(spans)); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// sortedKeys lists a map's keys in order, for deterministic digests.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
