package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// resultFile is what a run writes and -compare reads.
type resultFile struct {
	Environment environment       `json:"environment"`
	Seed        int64             `json:"seed"`
	Seconds     float64           `json:"seconds"`
	MinReps     int               `json:"min_reps"`
	Workloads   []*workloadResult `json:"workloads"`
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func (r *resultFile) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func (r *resultFile) workload(name string) *workloadResult {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// exactMetrics are compared for equality, whatever bound BENCHMARK.json
// gives them: they are counts of attacks and alerts, they repeat exactly
// from run to run of one seed, and one more missed attack is a change.
// (The bound in BENCHMARK.json has to cover the difference between
// seeds, which the driver's runs vary; -compare insists on one seed.)
var exactMetrics = map[string]bool{"recall": true, "precision": true, "fail_share": true}

// verdict applies one metric's bound to a baseline and a candidate
// reading. The medians decide same, better or worse; when either side's
// own inter-quartile spread is wider than the bound the pair cannot
// resolve a change of that size and is reported unresolved.
func verdict(def metricDef, base, cand measured) string {
	bound := def.Bound
	if exactMetrics[def.Name] {
		bound = 0
	}
	if spread(base.Q1, base.Value, base.Q3) > bound || spread(cand.Q1, cand.Value, cand.Q3) > bound {
		return "unresolved"
	}
	improved := cand.Value - base.Value
	if def.Better == "lower" {
		improved = -improved
	}
	// A zero baseline has no share to worsen by: any move is past the bound.
	limit := bound * math.Abs(base.Value)
	switch {
	case improved < -limit:
		return "worse"
	case improved > limit:
		return "better"
	default:
		return "same"
	}
}

// compareResults prints one row per (metric, workload) of the
// end-to-end table and reports whether any row is worse.
func compareResults(out io.Writer, con *contract, base, cand *resultFile) (worse bool, err error) {
	if base.Seed != cand.Seed {
		return false, fmt.Errorf("the result files come from different seeds (%d and %d): their inputs differ", base.Seed, cand.Seed)
	}
	fmt.Fprintf(out, "%-20s %-16s %14s %14s %8s %7s  %s\n", "workload", "metric", "baseline", "candidate", "change", "bound", "verdict")
	for _, w := range workloads {
		b, c := base.workload(w.name), cand.workload(w.name)
		if b == nil || c == nil {
			return false, fmt.Errorf("workload %s is missing from a result file", w.name)
		}
		for _, def := range con.EndToEnd {
			bm, ok1 := b.EndToEnd[def.Name]
			cm, ok2 := c.EndToEnd[def.Name]
			if !ok1 || !ok2 {
				return false, fmt.Errorf("%s: metric %s is missing from a result file", w.name, def.Name)
			}
			v := verdict(def, bm, cm)
			worse = worse || v == "worse"
			change := 0.0
			if bm.Value != 0 {
				change = 100 * (cm.Value - bm.Value) / bm.Value
			}
			bound := fmt.Sprintf("%.0f%%", 100*def.Bound)
			if exactMetrics[def.Name] {
				bound = "exact"
			}
			fmt.Fprintf(out, "%-20s %-16s %14s %14s %+7.1f%% %7s  %s\n", w.name, def.Name,
				formatValue(bm.Value), formatValue(cm.Value), change, bound, v)
		}
	}
	return worse, nil
}
