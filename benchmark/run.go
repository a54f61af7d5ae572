package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// p95Samples is the fewest pooled intervals detect_ms_p95 is reported
// from: a percentile needs at least ten samples beyond it.
const p95Samples = 200

// runConfig is what one benchmark run is told.
type runConfig struct {
	contract *contract
	root     string // checkout root: the module that holds cmd/hifind
	buildDir string // where binaries, captures and result files go
	seed     int64
	seconds  float64 // how long each measured phase runs at least
	minReps  int     // fewest timed repetitions of the binary
	short    bool    // bench_test.go only: tiny traces, no sample floor
	log      io.Writer
}

// workloadResult is one workload's entry in the result file.
type workloadResult struct {
	Name     string              `json:"name"`
	Why      string              `json:"why"`
	Capture  capture             `json:"capture"`
	Command  []string            `json:"command"` // the measured child's exact command line
	Reps     int                 `json:"reps,omitempty"`
	Samples  int                 `json:"detect_samples,omitempty"` // pooled intervals behind detect_ms_*
	Accuracy accuracy            `json:"accuracy"`
	EndToEnd map[string]measured `json:"end_to_end,omitempty"`
	PerLayer map[string]measured `json:"per_layer,omitempty"`
	// LedgerShares is each span name's self time as a share of the
	// traced run.
	LedgerShares map[string]float64 `json:"ledger_shares,omitempty"`
	Correct      bool               `json:"correct"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	Problems     []string           `json:"problems,omitempty"`
}

func (r *workloadResult) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// setUp builds cmd/hifind and generates the workload's capture into
// dir, and returns how long that took. The same seed writes the same
// bytes to the same path every time.
func setUp(ctx context.Context, rc runConfig, w workload, dir string) (bin string, c capture, secs float64, err error) {
	t0 := time.Now()
	if bin, err = buildProgram(ctx, rc.root, rc.buildDir); err != nil {
		return "", capture{}, 0, err
	}
	if c, err = w.generate(rc.seed, rc.short, filepath.Join(dir, w.name+".capture")); err != nil {
		return "", capture{}, 0, err
	}
	return bin, c, time.Since(t0).Seconds(), nil
}

// checkRun counts one run's intervals into the result's attempted and
// failed tallies.
func (r *workloadResult) checkRun(what string, o output, c capture) accuracy {
	acc := score(o, c)
	r.Attempted += acc.Expected
	r.Failed += acc.Missing
	if acc.Missing > 0 {
		r.problem("%s reported %d of %d intervals", what, acc.Expected-acc.Missing, acc.Expected)
	}
	return acc
}

// measureEndToEnd sets the workload up and runs the built binary on the
// capture, tracing off, over and over: at least rc.minReps times and for
// at least rc.seconds. Every metric is the median over all repetitions,
// with their quartiles. Setting up before every repetition gives
// setup_s as many samples as the timings, puts every repetition in the
// same state (binary and capture just written, so both in the page
// cache; no discarded warm-up run is needed), and spreads the
// repetitions over twice the time, so that a neighbour's burst on the
// machine is more likely to hit one repetition than all.
func measureEndToEnd(ctx context.Context, rc runConfig, w workload, dir string, res *workloadResult) (bin string, c capture, err error) {
	var (
		first                  output
		setups, pps, cpu, rss  []float64
		detect, repP50, repP95 []float64
		begin                  = time.Now()
	)
	for n := 0; n < rc.minReps || time.Since(begin).Seconds() < rc.seconds; n++ {
		var secs float64
		if bin, c, secs, err = setUp(ctx, rc, w, dir); err != nil {
			return "", capture{}, err
		}
		setups = append(setups, secs)
		run, err := runChild(ctx, bin, c)
		if err != nil {
			return "", capture{}, err
		}
		acc := res.checkRun(fmt.Sprintf("repetition %d", n+1), run.Out, c)
		if n == 0 {
			first, res.Accuracy = run.Out, acc
		} else if !sameAlerts(first, run.Out) || acc != res.Accuracy {
			res.Failed += acc.Expected - acc.Missing
			res.problem("repetition %d printed different alerts than the first", n+1)
		}
		fmt.Fprintf(rc.log, "   repetition %d: set-up %.3f s, wall %.3f s, cpu %.3f s\n", n+1, secs, run.Wall.Seconds(), run.CPU.Seconds())
		ms := run.Out.detectMillis()
		if len(ms) == 0 {
			return "", capture{}, fmt.Errorf("no interval past warm-up reported a detection time")
		}
		pps = append(pps, float64(c.Packets)/run.Wall.Seconds())
		cpu = append(cpu, float64(run.CPU)/float64(c.Packets))
		rss = append(rss, float64(run.RSSKiB)/1024)
		detect = append(detect, ms...)
		repP50 = append(repP50, median(ms))
		repP95 = append(repP95, percentile(ms, 95))
	}
	res.Reps = len(pps)
	res.Samples = len(detect)
	if len(detect) < p95Samples && !rc.short {
		return "", capture{}, fmt.Errorf("detect_ms_p95 needs %d pooled intervals, got %d", p95Samples, len(detect))
	}
	ms := newMetricSet(rc.contract.EndToEnd)
	ms.setSamples("setup_s", setups)
	ms.setSamples("pkts_per_s", pps)
	ms.setSamples("cpu_ns_per_pkt", cpu)
	ms.setSamples("peak_rss_mb", rss)
	// The detection times are pooled over the repetitions; the quartiles
	// beside them are those of the per-repetition figures, so that they
	// say how steady the figure is, not how intervals differ.
	setPooled := func(name string, perRep []float64, pooled float64) {
		ms.setSamples(name, perRep)
		m := ms.values[name]
		m.Value = pooled
		ms.values[name] = m
	}
	setPooled("detect_ms_p50", repP50, median(detect))
	setPooled("detect_ms_p95", repP95, percentile(detect, 95))
	ms.set("recall", res.Accuracy.recall())
	ms.set("precision", res.Accuracy.precision())
	ms.set("fail_share", res.Accuracy.failShare())
	if missing := ms.missing(); len(missing) > 0 {
		return "", capture{}, fmt.Errorf("end-to-end metrics never set: %v", missing)
	}
	res.EndToEnd = ms.values
	return bin, c, nil
}

// measureLayers is the traced run: one child run for the cmd rows and
// the shipped alerts, untraced and traced in-process passes alternating
// for three quarters of rc.seconds, then the core detector pass and the
// component rows. Every pass's alerts must equal the binary's.
func measureLayers(ctx context.Context, rc runConfig, w workload, bin string, c capture, res *workloadResult) error {
	ms := newMetricSet(rc.contract.PerLayer)
	child, err := runChild(ctx, bin, c)
	if err != nil {
		return err
	}
	res.Accuracy = res.checkRun("binary run", child.Out, c)
	cmdRows(ms, child)

	// Spans and walls for the ledger come from the fastest pass of each
	// kind, the one a neighbour's burst disturbed least.
	var (
		untraced     []facadeRun
		bestTraced   time.Duration
		bestUntraced time.Duration
		sr           *spanRecorder
	)
	begin := time.Now()
	for n := 0; n == 0 || time.Since(begin).Seconds() < rc.seconds*3/4; n++ {
		runtime.GC()
		plain, err := facadeReplay(c)
		if err != nil {
			return err
		}
		res.checkRun("untraced in-process replay", plain.Out, c)
		untraced = append(untraced, plain)
		if n == 0 || plain.Wall < bestUntraced {
			bestUntraced = plain.Wall
		}
		runtime.GC()
		rec := newSpanRecorder()
		tr, err := facadeTraced(c, rec)
		if err != nil {
			return err
		}
		if err := rec.validate(); err != nil {
			return fmt.Errorf("span tree: %w", err)
		}
		res.checkRun("traced in-process run", tr.Out, c)
		if n == 0 || tr.Wall < bestTraced {
			bestTraced, sr = tr.Wall, rec
		}
		for what, o := range map[string]output{"untraced in-process replay": plain.Out, "traced in-process run": tr.Out} {
			if !sameAlerts(child.Out, o) {
				res.Failed += c.ExpectedIntervals
				res.problem("the %s printed different alerts than the binary: the ledger did not measure the shipped path", what)
			}
		}
	}
	if err := sr.write(filepath.Join(rc.buildDir, "trace-"+w.name+".json")); err != nil {
		return err
	}
	if err := hifindRows(ms, c, untraced); err != nil {
		return err
	}
	runtime.GC()
	if err := coreDetectorRows(ms, c); err != nil {
		return err
	}
	h, err := buildHead(w.config(rc.seed, rc.short))
	if err != nil {
		return err
	}
	runtime.GC()
	for _, rows := range []func(*metricSet, *head) error{
		coreRecorderRows, sketchRows, revsketchRows, sketch2dRows, bloomRows,
		flowcacheRows, timeseriesRows, pcapRows, netflowRows,
	} {
		if err := rows(ms, h); err != nil {
			return err
		}
	}
	telemetryRows(ms)
	ledgerRows(ms, sr, h, bestTraced, bestUntraced, rc.log)
	if missing := ms.missing(); len(missing) > 0 {
		return fmt.Errorf("per-layer metrics never set: %v", missing)
	}
	res.PerLayer = ms.values

	self := sr.selfTime()
	total := 0.0
	for _, d := range self {
		total += float64(d)
	}
	res.LedgerShares = make(map[string]float64)
	for name, d := range self {
		res.LedgerShares[name] = float64(d) / total
	}
	return nil
}

// runWorkload sets a workload up and measures it end to end, layer by
// layer, or both. The capture is deleted before it returns.
func runWorkload(ctx context.Context, rc runConfig, w workload, endToEndRun, layersRun bool) (*workloadResult, error) {
	dir, err := os.MkdirTemp(rc.buildDir, "capture-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	res := &workloadResult{Name: w.name, Why: rc.contract.why(w.name)}
	var (
		bin string
		c   capture
	)
	if endToEndRun {
		bin, c, err = measureEndToEnd(ctx, rc, w, dir, res)
	} else {
		bin, c, _, err = setUp(ctx, rc, w, dir)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res.Capture, res.Command = c, append([]string{bin}, childArgs(c)...)
	if layersRun {
		if err := measureLayers(ctx, rc, w, bin, c, res); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	res.Correct = res.Failed == 0 && len(res.Problems) == 0
	return res, nil
}

// printResult prints every metric by name with its unit.
func printResult(out io.Writer, con *contract, r *workloadResult) {
	c := r.Capture
	fmt.Fprintf(out, "\n== %s: %d packets", r.Name, c.Packets)
	if c.Records > 0 {
		fmt.Fprintf(out, " in %d flow records", c.Records)
	}
	fmt.Fprintf(out, ", %d intervals, %.1f MB of %s\n", c.ExpectedIntervals, float64(c.Bytes)/1e6, c.Format)
	fmt.Fprintf(out, "   truth: %d attacks injected, %d missed; %d distinct final alerts, %d unmatched; %d of %d intervals missing; fail_share %.4f\n",
		r.Accuracy.Injected, r.Accuracy.Missed, r.Accuracy.Alerts, r.Accuracy.Unmatched,
		r.Accuracy.Missing, r.Accuracy.Expected, r.Accuracy.failShare())
	if r.EndToEnd != nil {
		fmt.Fprintf(out, "   end to end, tracing off: median of %d repetitions of the binary, %d pooled intervals\n", r.Reps, r.Samples)
		printMetrics(out, con.EndToEnd, r.EndToEnd)
	}
	if r.PerLayer != nil {
		fmt.Fprintf(out, "   per layer, traced in-process run:\n")
		printMetrics(out, con.PerLayer, r.PerLayer)
		names := make([]string, 0, len(r.LedgerShares))
		for name := range r.LedgerShares {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool { return r.LedgerShares[names[i]] > r.LedgerShares[names[j]] })
		fmt.Fprintf(out, "   self-time shares of the traced run:")
		for _, name := range names {
			fmt.Fprintf(out, " %s %.1f%%", name, 100*r.LedgerShares[name])
		}
		fmt.Fprintln(out)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(out, "   PROBLEM: %s\n", p)
	}
}

func printMetrics(out io.Writer, defs []metricDef, values map[string]measured) {
	for _, d := range defs {
		m, ok := values[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(out, "     %-34s %14s %-9s", d.Name, formatValue(m.Value), m.Unit)
		if m.N > 1 {
			fmt.Fprintf(out, "  q1 %s  q3 %s  n=%d", formatValue(m.Q1), formatValue(m.Q3), m.N)
		}
		fmt.Fprintln(out)
	}
}

func formatValue(v float64) string {
	switch a := math.Abs(v); {
	case a == 0:
		return "0"
	case a >= 1e5:
		return fmt.Sprintf("%.0f", v)
	case a >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}
