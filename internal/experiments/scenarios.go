package experiments

import (
	"fmt"

	"github.com/hifind/hifind/internal/baseline/backscatter"
	"github.com/hifind/hifind/internal/burst"
	"github.com/hifind/hifind/internal/core"
	"github.com/hifind/hifind/internal/evalx"
	"github.com/hifind/hifind/internal/trace"
)

// The evasion-scenario experiment quantifies what each auxiliary detector
// adds over the classic EWMA-forecast pipeline (DESIGN.md §17): every
// scenario trace is replayed twice — once with its dedicated detector
// enabled and once through the plain pipeline — and both runs are scored
// against the trace's ground truth. The EWMA-only rows are the point:
// burst pulses and stealth scans are *constructed* to sit below the
// per-interval threshold, so the classic pipeline's recall collapses
// while the per-detector recall stays high.

// ScenarioScore is one row of the evasion-scenario accuracy table.
type ScenarioScore struct {
	Scenario string
	Detector core.AlertType
	// With scores the run with the scenario's dedicated detector on.
	With evalx.Score
	// BaselineDetected counts scenario attacks the EWMA-only run surfaced
	// under ANY alert type for the same principal and port — deliberately
	// more generous than type-strict matching, so the recall gap below
	// cannot be an artifact of labels.
	BaselineDetected int
	// Attacks is the recall denominator (scenario attacks in the trace).
	Attacks int
	// BackscatterValidated counts scenario attacks confirmed by the
	// inbound-pointed backscatter analyzer (reflection rows only; the
	// §5.4-style external witness for the reflected ground truth).
	BackscatterValidated int
}

// BaselineRecall is the EWMA-only pipeline's recall on the scenario.
func (s ScenarioScore) BaselineRecall() float64 {
	if s.Attacks == 0 {
		return 1
	}
	return float64(s.BaselineDetected) / float64(s.Attacks)
}

// scenarioSpec binds a preset to the detector knobs that handle it.
type scenarioSpec struct {
	name     string
	alert    core.AlertType
	attack   trace.AttackType
	cfg      trace.Config
	detector func(*core.RecorderConfig, *core.DetectorConfig)
}

// scenarioSpecs builds the three evasion scenarios at the given length.
func scenarioSpecs(intervals int) []scenarioSpec {
	return []scenarioSpec{
		{
			name: "burst-pulse", alert: core.AlertBurstFlood, attack: trace.BurstPulse,
			cfg: trace.BurstPulseConfig(505, intervals),
			detector: func(r *core.RecorderConfig, _ *core.DetectorConfig) {
				r.BurstWindow = trace.BurstPulseConfig(505, intervals).Interval / burst.Slots
			},
		},
		{
			name: "stealth-scan", alert: core.AlertPersistScan, attack: trace.StealthScan,
			cfg: trace.StealthScanConfig(606, intervals),
			detector: func(_ *core.RecorderConfig, d *core.DetectorConfig) {
				d.PersistScan = true
			},
		},
		{
			name: "reflection", alert: core.AlertReflection, attack: trace.Reflection,
			cfg: trace.ReflectionConfig(707, intervals),
			detector: func(r *core.RecorderConfig, _ *core.DetectorConfig) {
				r.Reflection = true
			},
		},
	}
}

// ScenarioPR runs every evasion scenario through its dedicated detector
// and through the EWMA-only baseline, and scores both against ground
// truth. intervals below the presets' minimums are raised to 9.
func ScenarioPR(intervals int) ([]ScenarioScore, error) {
	if intervals < 9 {
		intervals = 9
	}
	out := make([]ScenarioScore, 0, 3)
	for _, spec := range scenarioSpecs(intervals) {
		rcfg, dcfg := hiFINDConfig()
		spec.detector(&rcfg, &dcfg)
		results, gen, err := RunHiFIND(spec.cfg, rcfg, dcfg)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", spec.name, err)
		}
		matcher := evalx.NewMatcher(gen.Attacks())
		row := ScenarioScore{
			Scenario: spec.name,
			Detector: spec.alert,
			With:     matcher.ScoreType(evalx.Dedup(results, evalx.PhaseFinal), spec.alert),
		}

		baseRcfg, baseDcfg := hiFINDConfig()
		baseResults, baseGen, err := RunHiFIND(spec.cfg, baseRcfg, baseDcfg)
		if err != nil {
			return nil, fmt.Errorf("scenario %s baseline: %w", spec.name, err)
		}
		baseAlerts := evalx.Dedup(baseResults, evalx.PhaseFinal)
		for _, atk := range baseGen.Attacks() {
			if atk.Type != spec.attack {
				continue
			}
			row.Attacks++
			if baselineClaims(baseAlerts, atk) {
				row.BaselineDetected++
			}
		}

		if spec.attack == trace.Reflection {
			n, err := validateReflection(gen)
			if err != nil {
				return nil, err
			}
			row.BackscatterValidated = n
		}
		out = append(out, row)
	}
	return out, nil
}

// baselineClaims reports whether any alert of the EWMA-only run names the
// scenario attack's principal (victim or attacker) on one of its ports,
// regardless of alert type.
func baselineClaims(alerts map[core.AlertKey]core.Alert, atk trace.Attack) bool {
	for _, a := range alerts {
		portOK := len(atk.Ports) == 0
		for _, p := range atk.Ports {
			if a.Port == p {
				portOK = true
				break
			}
		}
		if !portOK {
			continue
		}
		switch atk.Type {
		case trace.BurstPulse, trace.Reflection:
			if a.DIP == atk.Victim {
				return true
			}
		case trace.StealthScan:
			if len(atk.Attackers) > 0 && a.SIP == atk.Attackers[0] {
				return true
			}
		}
	}
	return false
}

// validateReflection replays the trace through the backscatter analyzer
// pointed inbound (Reflected mode) and counts ground-truth reflection
// victims whose unsolicited responses it confirms as uniformly spread —
// the reflected analogue of the paper's §5.4 validation.
func validateReflection(gen *trace.Generator) (int, error) {
	cfg := backscatter.DefaultConfig()
	cfg.Reflected = true
	analyzer, err := backscatter.New(cfg)
	if err != nil {
		return 0, err
	}
	for i := 0; i < gen.Intervals(); i++ {
		pkts, err := gen.GenerateInterval(i)
		if err != nil {
			return 0, err
		}
		for _, p := range pkts {
			analyzer.Observe(p)
		}
	}
	n := 0
	for _, atk := range gen.Attacks() {
		if atk.Type == trace.Reflection && analyzer.Validate(atk.Victim) {
			n++
		}
	}
	return n, nil
}

// FormatScenarioPR renders the evasion-scenario table.
func FormatScenarioPR(rows []ScenarioScore) string {
	table := make([][]string, 0, len(rows))
	for _, r := range rows {
		validated := "n/a"
		if r.Detector == core.AlertReflection {
			validated = fmt.Sprintf("%d/%d", r.BackscatterValidated, r.Attacks)
		}
		table = append(table, []string{
			r.Scenario,
			r.Detector.String(),
			fmt.Sprintf("%.2f", r.With.Precision()),
			fmt.Sprintf("%.2f", r.With.Recall()),
			fmt.Sprintf("%.2f", r.BaselineRecall()),
			validated,
		})
	}
	return evalx.FormatTable(
		[]string{"scenario", "detector", "precision", "recall", "EWMA-only recall", "backscatter"},
		table)
}
