// Command vpbench is the repository's benchmark. It drives closed-loop
// fleets of guest VPs through the public serving path — cudart.Context →
// ipc.Client → core.Service or core.MultiService — checks every result, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer metrics)
// of one workload as a final JSON line. Run it from the repository root
// through vpbench/run.sh, which builds it:
//
//	bash vpbench/run.sh --workload fleet-coalesce --seed 1 --seconds 10 --trace 0
//
// Workloads and metrics are listed, with the reason for each, in
// BENCHMARK.json at the repository root.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/ipc"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation.
type config struct {
	workload *workload
	seed     int64
	seconds  float64
	trace    bool
	spans    string // where a traced run writes its spans
	commit   string
	// cyclesPerVP overrides the workload's round size (smoke tests).
	cyclesPerVP int
	wrapHandler func(ipc.Handler) ipc.Handler
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fleet-coalesce, remote-small or farm-timing")
	seed := fs.Int64("seed", 1, "seed of the generated guest inputs")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement")
	spans := fs.String("spans", "", "span output of a traced run (default .bench_build/spans/<workload>-seed<n>.csv.gz)")
	commit := fs.String("commit", "unknown", "source revision, recorded with the results")
	cycles := fs.Int("cycles", 0, "cycles per VP in a round (0: the workload's own; small values make a smoke run)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "vpbench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "vpbench: --trace must be 0 or 1")
		return 2
	}
	cfg := config{workload: wl, seed: *seed, seconds: *seconds, trace: *trace == 1, spans: *spans, commit: *commit, cyclesPerVP: *cycles}
	if cfg.spans == "" {
		cfg.spans = fmt.Sprintf(".bench_build/spans/%s-seed%d.csv.gz", wl.name, cfg.seed)
	}
	// A wedged fleet must not outlive the run's time limit.
	limit := min(time.Duration(cfg.seconds*3)*time.Second+60*time.Second, 170*time.Second)
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(stderr, "vpbench: %s did not finish within %v\n", wl.name, limit)
		os.Exit(3)
	})
	defer watchdog.Stop()

	res, err := bench(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "vpbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "vpbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// cycleP99Note says why the latency tail is a per-layer figure rather than
// a gated end-to-end one: on a 2-vCPU VM it follows the host's CPU steal
// more than the program, and ten runs of one build spread wider than any
// regression bound worth having.
const cycleP99Note = "ungated: tracks host CPU steal"

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects metrics and prints each as a human-readable line too.
type report struct {
	w       io.Writer
	metrics map[string]metric
}

func (r *report) add(name string, v float64, unit, note string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	if note != "" {
		note = "  " + note
	}
	fmt.Fprintf(r.w, "metric %-34s %14.6g %-6s%s\n", name, v, unit, note)
}

// cpuModel reads the host CPU's model name.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func printEnv(w io.Writer, cfg config) {
	env := map[string]any{
		"workload":   cfg.workload.name,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     cfg.commit,
	}
	b, _ := json.Marshal(env) // a map of plain values always marshals
	fmt.Fprintf(w, "env %s\n", b)
}

// phase is a run of rounds until its measured time is used up. Host noise
// comes in bursts, so the end-to-end figures are taken over rounds (medians,
// or the steal-free fit of atZeroSteal): a burst spoils a round or two, not
// the run.
type phase struct {
	rounds            []*roundResult
	cycles, allCycles int
	window            float64
	attempted, failed int64
	checks            []string
	allocBytes, gcs   uint64
	// per-round figures
	rates, p50s, p99s, setups, heaps, cpus, steals []float64
	minSamples                                     int
}

func runPhase(cfg config, apps []*app, budget float64, tr *tracer, out io.Writer) (*phase, error) {
	cycles := cfg.workload.cyclesPerVP
	if cfg.cyclesPerVP > 0 {
		cycles = cfg.cyclesPerVP
	}
	p := &phase{}
	for len(p.rounds) == 0 || p.window < budget {
		r, err := runRound(cfg.workload, apps, roundOpts{cyclesPerVP: cycles, tr: tr, wrapHandler: cfg.wrapHandler})
		if err != nil {
			return nil, err
		}
		p.rounds = append(p.rounds, r)
		p.cycles += r.cycles
		p.allCycles += r.allCycles
		p.window += r.window
		p.attempted += r.attempted
		p.failed += r.failed
		p.checks = append(p.checks, r.checks...)
		p.allocBytes += r.allocBytes
		p.gcs += r.gcs
		if len(p.rounds) == 1 || r.cycles < p.minSamples {
			p.minSamples = r.cycles
		}
		p.rates = append(p.rates, float64(r.cycles)/r.window)
		p.p50s = append(p.p50s, r.p50)
		p.p99s = append(p.p99s, r.p99)
		p.setups = append(p.setups, r.setup)
		p.heaps = append(p.heaps, float64(r.heapLive)/(1<<20))
		p.cpus = append(p.cpus, r.cpu*1e3/float64(r.cycles))
		p.steals = append(p.steals, r.steal)
		i := len(p.rounds) - 1
		fmt.Fprintf(out, "round %d: setup_s=%.4f cycles=%d cycles_per_s=%.1f p50_ms=%.4f p99_ms=%.4f heap_mb=%.2f cpu_ms_per_cycle=%.4f steal=%.3f\n",
			i+1, r.setup, r.cycles, p.rates[i], p.p50s[i], p.p99s[i], p.heaps[i], p.cpus[i], r.steal)
	}
	return p, nil
}

func (p *phase) cyclesPerS() float64 { return median(p.rates) }

func bench(cfg config, out io.Writer) (*result, error) {
	printEnv(out, cfg)
	steal0, total0 := hostCPU()
	res, err := measure(cfg, out)
	if err != nil {
		return nil, err
	}
	// Host noise is the main source of spread between runs; say how much
	// there was.
	steal1, total1 := hostCPU()
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // on failure MaxRSS reads 0
	fmt.Fprintf(out, "host cpu steal %.1f%% during the run; peak rss %d MB\n",
		100*ratio(steal1-steal0, total1-total0), ru.Maxrss>>10)
	return res, nil
}

func measure(cfg config, out io.Writer) (*result, error) {
	apps, err := cfg.workload.apps(rand.New(rand.NewSource(cfg.seed)), cfg.workload.vps)
	if err != nil {
		return nil, err
	}
	rep := &report{w: out, metrics: map[string]metric{}}
	if !cfg.trace {
		p, err := runPhase(cfg, apps, cfg.seconds, nil, out)
		if err != nil {
			return nil, err
		}
		n := fmt.Sprintf("median of %d rounds", len(p.rounds))
		rep.add("cycles_per_s", atZeroSteal(p.steals, p.rates), "1/s",
			fmt.Sprintf("at zero steal; %s %.1f, %d cycles in %.3f s", n, median(p.rates), p.cycles, p.window))
		rep.add("cycle_ms_p50", 1/atZeroSteal(p.steals, reciprocals(p.p50s)), "ms",
			fmt.Sprintf("at zero steal; %s %.4f, %d samples", n, median(p.p50s), p.cycles))
		// The tail is printed but not gated: see cycleP99Note.
		fmt.Fprintf(out, "cycle_ms_p99 %g ms (%s of >= %d samples; %s)\n", median(p.p99s), n, p.minSamples, cycleP99Note)
		rep.add("cpu_ms_per_cycle", 1/atZeroSteal(p.steals, reciprocals(p.cpus)), "ms",
			fmt.Sprintf("process CPU time at zero steal; %s %.4f", n, median(p.cpus)))
		rep.add("setup_s", median(p.setups), "s", n)
		rep.add("heap_live_mb", median(p.heaps), "MB", n)
		fmt.Fprintf(out, "failed_ratio %g (%d of %d guest calls)\n", ratio(p.failed, p.attempted), p.failed, p.attempted)
		return finish(out, rep, p.attempted, p.failed, p.checks), nil
	}
	return benchTraced(cfg, apps, rep, out)
}

// benchTraced runs the workload untraced, then traced, then the layer
// replay. Spans stay in memory until the end, so the traced phase and the
// replay are capped at a second or two (about a million spans on
// farm-timing); the untraced phase gets the rest.
func benchTraced(cfg config, apps []*app, rep *report, out io.Writer) (*result, error) {
	tracedS, replayS := min(cfg.seconds*0.35, 1.5), min(cfg.seconds*0.3, 1)
	untraced, err := runPhase(cfg, apps, cfg.seconds-tracedS-replayS, nil, out)
	if err != nil {
		return nil, err
	}
	tr := newTracer(cfg.workload.vps)
	traced, err := runPhase(cfg, apps, tracedS, tr, out)
	if err != nil {
		return nil, err
	}
	rp, err := replay(cfg.workload, apps, time.Duration(replayS*float64(time.Second)), tr)
	if err != nil {
		return nil, err
	}
	spans := tr.all()
	st := summarize(spans)
	if err := writeSpans(cfg.spans, spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(out, "spans %d written to %s\n", len(spans), cfg.spans)

	ll := &liveLayers{counters: map[string]int64{}}
	var makespans []float64
	for _, r := range traced.rounds {
		ll.add(r.layer)
		makespans = append(makespans, r.layer.makespan)
	}
	c := ll.counters
	all := float64(traced.allCycles)
	p50 := func(name int, scale float64) float64 { return median(st.dur[name]) / scale }
	var cudartSelf []float64
	for _, n := range []int{spH2D, spLaunch, spD2H} {
		cudartSelf = append(cudartSelf, st.self[n]...)
	}

	rep.add("cudart.h2d_ms_p50", p50(spH2D, 1e6), "ms", "")
	rep.add("cudart.launch_ms_p50", p50(spLaunch, 1e6), "ms", "")
	rep.add("cudart.d2h_ms_p50", p50(spD2H, 1e6), "ms", "")
	rep.add("cudart.self_us_p50", median(cudartSelf)/1e3, "us", "cudart time outside the ipc call")
	rep.add("cycle.self_us_p50", median(st.self[spCycle])/1e3, "us", "guest time outside cudart: output checks")
	rep.add("ipc.transport_us_p50", median(st.self[spIPC])/1e3, "us", "client call minus handler")
	rep.add("ipc.wire_bytes_per_cycle", float64(ll.wire)/all, "B", "")
	rep.add("ipc.conn_ops_per_call", float64(ll.reads+ll.writes)/float64(ll.calls), "count", fmt.Sprintf("reads=%d writes=%d calls=%d", ll.reads, ll.writes, ll.calls))
	rep.add("core.handle_ms_p50", p50(spHandle, 1e6), "ms", "")
	rep.add("core.jobs_per_batch", ratio(c["sched.jobs_pushed"], c["sched.batches_planned"]), "count", "")
	rep.add("core.singleton_batch_share", ratio(ll.singletons, ll.batches), "ratio", fmt.Sprintf("batches=%d", ll.batches))
	rep.add("core.exec.stall_ms_per_s", float64(c["core.exec.stall_wait_ns"])/1e6/ll.wall, "ms/s", "")
	rep.add("coalesce.merged_share", ratio(c["coalesce.jobs_merged"], ll.launches), "ratio", fmt.Sprintf("launches=%d", ll.launches))
	rep.add("coalesce.win_ratio", ratio(c["coalesce.wins"], c["coalesce.matches"]), "ratio", fmt.Sprintf("matches=%d", c["coalesce.matches"]))
	rep.add("coalesce.apply_us_per_batch", mean(st.dur[spApply])/1e3, "us", fmt.Sprintf("replay batches=%d", rp.batches))
	rep.add("coalesce.merged_run_us_per_member", ratioF(sum(st.dur[spRunMerged])/1e3, float64(rp.membersMerged)), "us", fmt.Sprintf("replay members=%d", rp.membersMerged))
	rep.add("sched.plan_us_per_batch", mean(st.dur[spPlan])/1e3, "us", "replay")
	rep.add("sched.reorder_distance_mean", ratioF(ll.reorderSum, float64(ll.reorderCount)), "count", "")
	rep.add("devmem.bind_us_per_mb", ratioF(sum(st.dur[spBind])/1e3, float64(rp.boundBytes)/(1<<20)), "us/MB", "replay probe")
	rep.add("devmem.writeback_us_per_mb", ratioF(sum(st.dur[spWriteback])/1e3, float64(rp.writtenBytes)/(1<<20)), "us/MB", "replay probe")
	rep.add("hostgpu.launch_timing_us", mean(st.dur[spLaunchTiming])/1e3, "us", "replay probe, warm cache")
	rep.add("hostgpu.timing_cache_hit_ratio", ratio(c["hostgpu.timing_cache.hits"], c["hostgpu.timing_cache.hits"]+c["hostgpu.timing_cache.misses"]), "ratio", "")
	rep.add("hostgpu.sim_makespan_s", median(makespans), "s", "simulated, median of rounds")
	rep.add("hostgpu.sim_s_per_host_s", ll.makespan/ll.wall, "s/s", "simulated")
	rep.add("kpl.exec_ns_per_thread", ratioF(sum(st.dur[spKplExec]), float64(rp.threads)), "ns", "replay")
	rep.add("metrics.events_per_cycle", float64(ll.events)/all, "count", "")
	rep.add("cycle_ms_p99", median(untraced.p99s), "ms", fmt.Sprintf("untraced, median of %d rounds of >= %d samples; %s", len(untraced.rounds), untraced.minSamples, cycleP99Note))
	rep.add("go.alloc_kb_per_cycle", float64(untraced.allocBytes)/1024/float64(untraced.cycles), "KB", "untraced")
	rep.add("go.gc_per_s", float64(untraced.gcs)/untraced.window, "1/s", "untraced")
	rep.add("trace.overhead_cycles_per_s", traced.cyclesPerS()-untraced.cyclesPerS(), "1/s",
		fmt.Sprintf("traced %.1f untraced %.1f", traced.cyclesPerS(), untraced.cyclesPerS()))

	checks := append(untraced.checks, traced.checks...)
	failed := untraced.failed + traced.failed
	if rp.mismatches > 0 {
		checks = append(checks, fmt.Sprintf("replay: %d D2H results differ from the Native semantics", rp.mismatches))
		failed += int64(rp.mismatches)
	}
	return finish(out, rep, untraced.attempted+traced.attempted, failed, checks), nil
}

func finish(out io.Writer, rep *report, attempted, failed int64, checks []string) *result {
	for _, c := range checks {
		fmt.Fprintln(out, "check failed:", c)
	}
	return &result{
		Correct:   failed == 0 && len(checks) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   rep.metrics,
	}
}

// atZeroSteal returns a rate-like figure (one that falls as the host steals
// CPU from the VM) as it would read on a host that steals nothing: the
// intercept of y = a + b·steal fitted over the rounds with the Theil–Sen
// estimator (median of pairwise slopes), which outlier rounds cannot drag.
// On a shared VM the steal share swings between a few and thirty percent
// from one minute to the next and cuts wall-clock throughput by about 1.7
// times as much, so raw medians of two runs of one build can differ by a
// third; the intercept describes the program rather than its neighbours.
// The slope is clamped at zero, since steal cannot speed the program up, so
// the figure is never below the rounds' median; with no spread in steal it
// is that median.
func atZeroSteal(steal, y []float64) float64 {
	var slopes []float64
	for i := range y {
		for j := i + 1; j < len(y); j++ {
			if dx := steal[j] - steal[i]; dx != 0 {
				slopes = append(slopes, (y[j]-y[i])/dx)
			}
		}
	}
	b := min(median(slopes), 0)
	adj := make([]float64, len(y))
	for i := range y {
		adj[i] = y[i] - b*steal[i]
	}
	return median(adj)
}

// reciprocals turns times per cycle into rates, the form atZeroSteal fits.
func reciprocals(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = 1 / x
	}
	return out
}

func ratio(a, b int64) float64 { return ratioF(float64(a), float64(b)) }

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

func mean(v []float64) float64 { return ratioF(sum(v), float64(len(v))) }

func ratioF(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
