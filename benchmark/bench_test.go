package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func testContract(t *testing.T) *contract {
	t.Helper()
	con, err := loadContract("..")
	if err != nil {
		t.Fatal(err)
	}
	return con
}

// TestContract holds BENCHMARK.json, the harness's only table of
// workloads and metrics, to the limits the driver refuses a file outside
// of, and to the command and paths this directory serves.
func TestContract(t *testing.T) {
	con := testContract(t)
	if !reflect.DeepEqual(con.Command, []string{"bash", "benchmark/run.sh"}) || !reflect.DeepEqual(con.Paths, []string{"benchmark"}) {
		t.Errorf("command %v, paths %v", con.Command, con.Paths)
	}
	if con.RunSeconds < 1 || con.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", con.RunSeconds)
	}
	for i, w := range con.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in workloads.go", i, w.Name, workloads[i].name)
		}
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name, or no why, or one longer than 200 characters or a line", w.Name)
		}
	}
	seen := map[string]bool{}
	check := func(d metricDef) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || (d.Better != "higher" && d.Better != "lower") {
			t.Errorf("metric %q: bad name, unit %q or direction %q", d.Name, d.Unit, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %q is defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range con.EndToEnd {
		check(d)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if d, ok := findMetric(con.EndToEnd, "setup_s"); !ok || d.Unit != "s" || d.Better != "lower" {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range con.PerLayer {
		check(d)
		if d.Bound != 0 {
			t.Errorf("per-layer metric %q has a bound", d.Name)
		}
	}
}

// TestSmoke runs one workload at smoke-test size through both runs and
// checks that every metric BENCHMARK.json names comes out with its
// unit, that the span tree is well-formed, and that comparing a result
// file with itself finds nothing changed.
func TestSmoke(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	con := testContract(t)
	rc := runConfig{contract: con, root: root, buildDir: t.TempDir(), seed: 101, seconds: 0.2,
		minReps: 1, short: true, log: io.Discard}
	w, _ := findWorkload("edge-zipf-pcap")
	res, err := runWorkload(context.Background(), rc, w, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d problems=%v", res.Correct, res.Attempted, res.Failed, res.Problems)
	}
	for _, d := range con.EndToEnd {
		if m, ok := res.EndToEnd[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("end-to-end metric %s: emitted=%v with unit %q, want %q", d.Name, ok, m.Unit, d.Unit)
		}
	}
	for _, d := range con.PerLayer {
		if m, ok := res.PerLayer[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("per-layer metric %s: emitted=%v with unit %q, want %q", d.Name, ok, m.Unit, d.Unit)
		}
	}

	data, err := os.ReadFile(filepath.Join(rc.buildDir, "trace-"+w.name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var tree struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &tree); err != nil {
		t.Fatal(err)
	}
	sr := &spanRecorder{spans: tree.Spans}
	if err := sr.validate(); err != nil {
		t.Errorf("span tree: %v", err)
	}
	self := sr.selfTime()
	for _, name := range []string{"run", "interval", "decode", "observe", "end_interval", "emit"} {
		d, ok := self[name]
		if !ok || d < 0 {
			t.Errorf("span %q: recorded=%v self time %v", name, ok, d)
		}
	}
	ended := 0
	for _, s := range tree.Spans {
		if s.Name == "end_interval" {
			ended++
		}
	}
	if ended != res.Capture.ExpectedIntervals {
		t.Errorf("%d end_interval spans for %d intervals", ended, res.Capture.ExpectedIntervals)
	}

	file := &resultFile{Seed: rc.seed}
	for _, w := range workloads {
		entry := *res
		entry.Name = w.name
		file.Workloads = append(file.Workloads, &entry)
	}
	path := filepath.Join(rc.buildDir, "result.json")
	if err := file.write(path); err != nil {
		t.Fatal(err)
	}
	back, err := readResult(path)
	if err != nil {
		t.Fatal(err)
	}
	var table bytes.Buffer
	worse, err := compareResults(&table, con, back, back)
	if err != nil || worse {
		t.Fatalf("comparing a file with itself: worse=%v err=%v", worse, err)
	}
	lines := strings.Split(strings.TrimSpace(table.String()), "\n")[1:]
	if len(lines) != len(workloads)*len(con.EndToEnd) {
		t.Errorf("%d comparison rows, want one per metric and workload", len(lines))
	}
	for _, line := range lines {
		if v := line[strings.LastIndex(line, " ")+1:]; v != "same" {
			t.Errorf("self-comparison row is not same: %s", line)
		}
	}
}

func TestVerdict(t *testing.T) {
	higher := metricDef{"pkts_per_s", "packets/s", "higher", 0.10}
	lower := metricDef{"detect_ms_p50", "ms", "lower", 0.10}
	steady := func(v float64) measured { return measured{Value: v, Q1: v * 0.99, Q3: v * 1.01, N: 5} }
	noisy := func(v float64) measured { return measured{Value: v, Q1: v * 0.9, Q3: v * 1.1, N: 5} }
	// recall is compared exactly, whatever its bound in BENCHMARK.json.
	recall := metricDef{"recall", "ratio", "higher", 0.05}
	once := func(v float64) measured { return measured{Value: v, Q1: v, Q3: v, N: 1} }
	for _, tc := range []struct {
		def        metricDef
		base, cand measured
		want       string
	}{
		{higher, steady(100), steady(105), "same"},
		{higher, steady(100), steady(85), "worse"},
		{higher, steady(100), steady(120), "better"},
		{lower, steady(100), steady(120), "worse"},
		{lower, steady(100), steady(80), "better"},
		{lower, steady(100), noisy(130), "unresolved"},
		{higher, noisy(100), steady(100), "unresolved"},
		{recall, once(123.0 / 164), once(123.0 / 164), "same"},
		{recall, once(123.0 / 164), once(122.0 / 164), "worse"},
		{recall, once(123.0 / 164), once(124.0 / 164), "better"},
	} {
		if got := verdict(tc.def, tc.base, tc.cand); got != tc.want {
			t.Errorf("%s %v -> %v: %s, want %s", tc.def.Name, tc.base.Value, tc.cand.Value, got, tc.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4),
// the rule the driver applies to the benchmark's runs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
	} {
		q1, med, q3 := quartiles(tc.in)
		if got := [3]float64{q1, med, q3}; !reflect.DeepEqual(got, tc.want) {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
