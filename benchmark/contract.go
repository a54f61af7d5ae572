package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metricDef names one reported metric as BENCHMARK.json defines it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound"`  // end-to-end only: share of the baseline median the metric may worsen by
}

// contract is BENCHMARK.json, the one place that names the workloads and
// the metrics with their units, directions and bounds. The harness reads
// it at start-up: a workload it names must be built in workloads.go, and
// a metric it does not name cannot be reported (metricSet).
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadContract(root string) (*contract, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(c.Workloads) != len(workloads) {
		return nil, fmt.Errorf("BENCHMARK.json names %d workloads, workloads.go builds %d", len(c.Workloads), len(workloads))
	}
	for _, w := range c.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			return nil, fmt.Errorf("BENCHMARK.json names workload %q, which workloads.go does not build", w.Name)
		}
	}
	return &c, nil
}

// why is the reason BENCHMARK.json gives for a workload.
func (c *contract) why(workload string) string {
	for _, w := range c.Workloads {
		if w.Name == workload {
			return w.Why
		}
	}
	return ""
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// measured is one metric's value in a result file: the median of its
// samples with their quartiles and count (N is 1 for a single reading).
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// metricSet collects measured metrics against one table of definitions,
// so a name that is not in the table cannot be reported.
type metricSet struct {
	defs   []metricDef
	values map[string]measured
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]measured)}
}

// set records a single reading.
func (m *metricSet) set(name string, v float64) {
	m.setSamples(name, []float64{v})
}

// setSamples records the median of samples with their quartiles.
func (m *metricSet) setSamples(name string, samples []float64) {
	def, ok := findMetric(m.defs, name)
	if !ok {
		panic(fmt.Sprintf("benchmark: metric %q is not defined in BENCHMARK.json", name))
	}
	q1, med, q3 := quartiles(samples)
	m.values[name] = measured{Value: med, Unit: def.Unit, Q1: q1, Q3: q3, N: len(samples)}
}

// missing lists defined metrics that were never set.
func (m *metricSet) missing() []string {
	var out []string
	for _, d := range m.defs {
		if _, ok := m.values[d.Name]; !ok {
			out = append(out, d.Name)
		}
	}
	sort.Strings(out)
	return out
}
