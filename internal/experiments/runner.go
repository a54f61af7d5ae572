// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) from synthetic traces with ground truth: the detection
// phase counts (Table 4), baseline comparisons (Tables 1, 5, 6), scan
// rankings (Tables 7–8), the Figure 4 histogram, the multi-router
// experiment (§5.3.2), validation (§5.4), the memory comparison (Table 9)
// and the online-performance measurements (§5.5). cmd/benchtables prints
// them; bench_test.go wraps them as benchmarks; the package tests assert
// the paper's qualitative claims hold.
package experiments

import (
	"fmt"
	"time"

	"github.com/hifind/hifind/internal/aggregate"
	"github.com/hifind/hifind/internal/baseline/backscatter"
	"github.com/hifind/hifind/internal/baseline/cpm"
	"github.com/hifind/hifind/internal/baseline/pcf"
	"github.com/hifind/hifind/internal/baseline/superspreader"
	"github.com/hifind/hifind/internal/baseline/trw"
	"github.com/hifind/hifind/internal/baseline/trwac"
	"github.com/hifind/hifind/internal/core"
	"github.com/hifind/hifind/internal/evalx"
	"github.com/hifind/hifind/internal/netmodel"
	"github.com/hifind/hifind/internal/trace"
)

// Scale controls trace sizes: 1 is CI-speed, larger values approach the
// paper's day-long traces in event counts.
type Scale struct {
	// Intervals per trace (paper: 1440 one-minute intervals per day).
	Intervals int
	// Events multiplies preset attack counts.
	Events float64
}

// QuickScale is used by tests; FullScale by cmd/benchtables -full.
func QuickScale() Scale { return Scale{Intervals: 20, Events: 1} }

// FullScale approximates the paper's trace in attack mixture (still far
// fewer packets; rates are threshold-relative so shape is preserved).
func FullScale() Scale { return Scale{Intervals: 120, Events: 4} }

// detectorSeed keeps every experiment reproducible.
const detectorSeed = 0x42

// hiFINDConfig is the standard experiment configuration: compact sketches
// (same structure set as the paper's, smaller tables) for speed.
func hiFINDConfig() (core.RecorderConfig, core.DetectorConfig) {
	return core.TestRecorderConfig(detectorSeed), core.DetectorConfig{Threshold: 60}
}

// Run holds everything one pass over a trace produced.
type Run struct {
	Gen      *trace.Generator
	Results  []core.IntervalResult
	TRW      *trw.Detector
	TRWAC    *trwac.Detector
	CPM      *cpm.Detector
	Backscat *backscatter.Analyzer
	Spreader *superspreader.Detector
	PCF      *pcf.Detector
	// PCFFlagged accumulates PCF's per-interval victim flags.
	PCFFlagged map[netmodel.IPv4]bool
	Packets    int64
}

// RunAll streams a trace once through HiFIND and every baseline.
func RunAll(cfg trace.Config) (*Run, error) {
	gen, err := trace.New(cfg)
	if err != nil {
		return nil, err
	}
	rcfg, dcfg := hiFINDConfig()
	det, err := core.NewDetector(rcfg, dcfg)
	if err != nil {
		return nil, err
	}
	r := &Run{Gen: gen}
	if r.TRW, err = trw.New(trw.DefaultConfig()); err != nil {
		return nil, err
	}
	if r.TRWAC, err = trwac.New(trwac.DefaultConfig(detectorSeed)); err != nil {
		return nil, err
	}
	if r.CPM, err = cpm.New(cpm.DefaultConfig()); err != nil {
		return nil, err
	}
	if r.Backscat, err = backscatter.New(backscatter.DefaultConfig()); err != nil {
		return nil, err
	}
	if r.Spreader, err = superspreader.New(superspreader.DefaultConfig(detectorSeed)); err != nil {
		return nil, err
	}
	if r.PCF, err = pcf.New(pcf.DefaultConfig(detectorSeed)); err != nil {
		return nil, err
	}
	r.PCFFlagged = make(map[netmodel.IPv4]bool)
	for i := 0; i < cfg.Intervals; i++ {
		pkts, err := gen.GenerateInterval(i)
		if err != nil {
			return nil, err
		}
		for _, p := range pkts {
			det.Observe(p)
			r.TRW.Observe(p)
			r.TRWAC.Observe(p)
			r.CPM.Observe(p)
			r.Backscat.Observe(p)
			r.Spreader.Observe(p)
			r.PCF.Observe(p)
			r.Packets++
		}
		res, err := det.EndInterval()
		if err != nil {
			return nil, err
		}
		r.Results = append(r.Results, res)
		r.TRW.EndInterval()
		r.CPM.EndInterval()
		for _, v := range r.PCF.EndInterval() {
			r.PCFFlagged[v] = true
		}
	}
	return r, nil
}

// RunHiFIND streams a trace through HiFIND alone (cheaper when baselines
// are not needed).
func RunHiFIND(cfg trace.Config, rcfg core.RecorderConfig, dcfg core.DetectorConfig) ([]core.IntervalResult, *trace.Generator, error) {
	gen, err := trace.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	det, err := core.NewDetector(rcfg, dcfg)
	if err != nil {
		return nil, nil, err
	}
	results := make([]core.IntervalResult, 0, cfg.Intervals)
	for i := 0; i < cfg.Intervals; i++ {
		pkts, err := gen.GenerateInterval(i)
		if err != nil {
			return nil, nil, err
		}
		for _, p := range pkts {
			det.Observe(p)
		}
		res, err := det.EndInterval()
		if err != nil {
			return nil, nil, err
		}
		results = append(results, res)
	}
	return results, gen, nil
}

// NUTrace and LBLTrace build the two evaluation traces at a scale.
func NUTrace(s Scale) trace.Config  { return trace.NUConfig(101, s.Intervals, s.Events) }
func LBLTrace(s Scale) trace.Config { return trace.LBLConfig(202, s.Intervals, s.Events) }

// MultiRouterResult captures the §5.3.2 experiment.
type MultiRouterResult struct {
	SingleAlerts     int
	AggregatedAlerts int
	MissingFromAgg   int
	// TRWSingle and TRWSummed compare TRW on the whole trace with TRW run
	// per-router and unioned, which is what an operator without sketch
	// aggregation would do.
	TRWSingle, TRWSummed int
}

// MultiRouter splits the NU trace per-packet over three routers and
// compares aggregated detection with single-router detection, for both
// HiFIND and TRW.
func MultiRouter(s Scale) (MultiRouterResult, error) {
	cfg := NUTrace(s)
	gen, err := trace.New(cfg)
	if err != nil {
		return MultiRouterResult{}, err
	}
	rcfg, dcfg := hiFINDConfig()
	single, err := core.NewDetector(rcfg, dcfg)
	if err != nil {
		return MultiRouterResult{}, err
	}
	agg, err := core.NewDetector(rcfg, dcfg)
	if err != nil {
		return MultiRouterResult{}, err
	}
	routers := make([]*core.Recorder, 3)
	trwSingle, err := trw.New(trw.DefaultConfig())
	if err != nil {
		return MultiRouterResult{}, err
	}
	trwPer := make([]*trw.Detector, 3)
	for i := range routers {
		if routers[i], err = core.NewRecorder(rcfg); err != nil {
			return MultiRouterResult{}, err
		}
		if trwPer[i], err = trw.New(trw.DefaultConfig()); err != nil {
			return MultiRouterResult{}, err
		}
	}
	split, err := aggregate.NewSplitter(3, 7)
	if err != nil {
		return MultiRouterResult{}, err
	}
	var singleRes, aggRes []core.IntervalResult
	for i := 0; i < cfg.Intervals; i++ {
		pkts, err := gen.GenerateInterval(i)
		if err != nil {
			return MultiRouterResult{}, err
		}
		for _, p := range pkts {
			single.Observe(p)
			trwSingle.Observe(p)
			r := split.Route(p)
			routers[r].Observe(p)
			trwPer[r].Observe(p)
		}
		sres, err := single.EndInterval()
		if err != nil {
			return MultiRouterResult{}, err
		}
		singleRes = append(singleRes, sres)
		// Each router ships its serialized state; the aggregating
		// detector adds them into its own recorder.
		for _, r := range routers {
			state, err := r.MarshalBinary()
			if err != nil {
				return MultiRouterResult{}, err
			}
			if err := agg.Recorder().AddBinary(state); err != nil {
				return MultiRouterResult{}, err
			}
			r.Reset()
		}
		ares, err := agg.EndInterval()
		if err != nil {
			return MultiRouterResult{}, err
		}
		aggRes = append(aggRes, ares)
		trwSingle.EndInterval()
		for _, td := range trwPer {
			td.EndInterval()
		}
	}
	sAlerts := evalx.Dedup(singleRes, evalx.PhaseFinal)
	aAlerts := evalx.Dedup(aggRes, evalx.PhaseFinal)
	out := MultiRouterResult{SingleAlerts: len(sAlerts), AggregatedAlerts: len(aAlerts)}
	for k := range sAlerts {
		if _, ok := aAlerts[k]; !ok {
			out.MissingFromAgg++
		}
	}
	out.TRWSingle = len(trwSingle.Scanners())
	summed := map[netmodel.IPv4]bool{}
	for _, td := range trwPer {
		for _, s := range td.Scanners() {
			summed[s] = true
		}
	}
	out.TRWSummed = len(summed)
	return out, nil
}

// ValidationResult captures §5.4: backscatter confirmation of detected
// spoofed floods.
type ValidationResult struct {
	FinalFloods        int
	BackscatterMatched int
}

// Validation cross-checks HiFIND's final flooding victims against the
// backscatter analyzer.
func Validation(run *Run) ValidationResult {
	finals := evalx.Dedup(run.Results, evalx.PhaseFinal)
	var out ValidationResult
	for k := range finals {
		if k.Type != core.AlertSYNFlood {
			continue
		}
		out.FinalFloods++
		if run.Backscat.Validate(k.DIP) {
			out.BackscatterMatched++
		}
	}
	return out
}

// FormatDuration renders a duration at millisecond precision for reports.
func FormatDuration(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
}
