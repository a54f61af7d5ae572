package core

// Cross-engine differential harness for offender-key recovery: the
// reverse-hashing search over the reversible sketches is the
// independently written witness, and the invertible-sketch decode must
// reproduce its alert output exactly — same keys, same magnitudes, same
// order — because recovered candidates are re-estimated from the same
// reversible error grids. The tests drive both engines sequentially and
// through a 3-router COMBINE, the two deployment shapes the paper
// evaluates.

import (
	"testing"
	"time"

	"github.com/hifind/hifind/internal/netmodel"
	"github.com/hifind/hifind/internal/trace"
)

// inferenceTrace is a multi-attack scenario with a borderline vertical
// scan (rate near the threshold) so the suite exercises the
// candidate-margin path, not only comfortably heavy keys.
func inferenceTrace() trace.Config {
	return trace.Config{
		Seed:            2121,
		Start:           time.Date(2005, 5, 10, 0, 0, 0, 0, time.UTC),
		Interval:        time.Minute,
		Intervals:       6,
		InternalPrefix:  0x81690000,
		Servers:         30,
		BackgroundFlows: 400,
		OutboundFlows:   80,
		FailRate:        0.04,
		Attacks: []trace.Attack{
			{Type: trace.SYNFlood, Spoofed: true, Victim: 0x8169c801,
				Ports: []uint16{80}, StartInterval: 1, EndInterval: 4, Rate: 400,
				ResponseRate: 0.1, Cause: "flood"},
			{Type: trace.HorizontalScan, Attackers: []netmodel.IPv4{0x0a141401},
				Victim: 0x81698000, Ports: []uint16{445}, Targets: 600,
				StartInterval: 2, EndInterval: 4, Rate: 600, Cause: "hscan"},
			{Type: trace.VerticalScan, Attackers: []netmodel.IPv4{0x0a282802},
				Victim: 0x81698010, Ports: []uint16{1, 2, 3, 4, 5, 6, 7, 8}, Targets: 1,
				StartInterval: 2, EndInterval: 4, Rate: 70, Cause: "borderline vscan"},
		},
	}
}

func inferenceConfig(seed uint64, engine InferenceEngine) RecorderConfig {
	cfg := TestRecorderConfig(seed)
	cfg.Inference = engine
	return cfg
}

// requireSameAlerts compares two interval-result sequences phase by
// phase, rendering alerts so magnitudes and key fields are all pinned.
func requireSameAlerts(t *testing.T, wantRes, gotRes []IntervalResult, label string) {
	t.Helper()
	if len(wantRes) != len(gotRes) {
		t.Fatalf("%s: interval counts differ: %d vs %d", label, len(wantRes), len(gotRes))
	}
	total := 0
	for i := range wantRes {
		w, g := wantRes[i], gotRes[i]
		render := func(alerts []Alert) []string {
			out := make([]string, len(alerts))
			for j, a := range alerts {
				out[j] = a.String()
			}
			return out
		}
		for _, phase := range []struct {
			name string
			w, g []Alert
		}{
			{"raw", w.Raw, g.Raw},
			{"phase2", w.Phase2, g.Phase2},
			{"final", w.Final, g.Final},
		} {
			wa, ga := render(phase.w), render(phase.g)
			if len(wa) != len(ga) {
				t.Fatalf("%s: interval %d %s: %d vs %d alerts\nwant: %v\ngot:  %v",
					label, i, phase.name, len(wa), len(ga), wa, ga)
			}
			for j := range wa {
				if wa[j] != ga[j] {
					t.Fatalf("%s: interval %d %s alert %d: %q vs %q", label, i, phase.name, j, wa[j], ga[j])
				}
			}
			total += len(wa)
		}
	}
	if total == 0 {
		t.Fatalf("%s: no alerts in any phase; the equivalence would be vacuous", label)
	}
}

// TestInferenceDifferentialSequential runs the full three-phase detector
// over the same trace on both inference engines and requires identical
// alert output in every interval.
func TestInferenceDifferentialSequential(t *testing.T) {
	mk := func(engine InferenceEngine) *Detector {
		d, err := NewDetector(inferenceConfig(0xa1e8, engine), DetectorConfig{Threshold: 60})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	cfg := inferenceTrace()
	revRes := runTrace(t, mk(InferenceReverse), cfg)
	invRes := runTrace(t, mk(InferenceInvertible), cfg)
	requireSameAlerts(t, revRes, invRes, "sequential")
}

// TestInferenceDifferentialCombine splits each interval's packets across
// three "routers" per engine, merges each engine's routers with COMBINE,
// and requires the detections over the aggregates to match — proving the
// invertible sketches stay decodable after linear merging, the
// multi-router deployment of paper §3.1.
func TestInferenceDifferentialCombine(t *testing.T) {
	const routers = 3
	cfg := inferenceTrace()
	run := func(engine InferenceEngine) []IntervalResult {
		rcfg := inferenceConfig(0xc0fe, engine)
		det, err := NewDetector(rcfg, DetectorConfig{Threshold: 60})
		if err != nil {
			t.Fatal(err)
		}
		g, err := trace.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		results := make([]IntervalResult, 0, cfg.Intervals)
		for i := 0; i < cfg.Intervals; i++ {
			recs := make([]*Recorder, routers)
			for r := range recs {
				if recs[r], err = NewRecorder(rcfg); err != nil {
					t.Fatal(err)
				}
			}
			pkts, err := g.GenerateInterval(i)
			if err != nil {
				t.Fatal(err)
			}
			for j, p := range pkts {
				recs[j%routers].Observe(p)
			}
			addStates(t, det.Recorder(), recs...)
			res, err := det.EndInterval()
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, res)
		}
		return results
	}
	requireSameAlerts(t, run(InferenceReverse), run(InferenceInvertible), "combine")
}

// TestInferenceModeIncompatible: recorders on different inference
// engines carry different structure sets, so AddBinary across modes, in
// either direction, must fail instead of silently dropping sketches.
func TestInferenceModeIncompatible(t *testing.T) {
	rev, err := NewRecorder(inferenceConfig(0xabcd, InferenceReverse))
	if err != nil {
		t.Fatal(err)
	}
	inv, err := NewRecorder(inferenceConfig(0xabcd, InferenceInvertible))
	if err != nil {
		t.Fatal(err)
	}
	if err := rev.AddBinary(mustMarshal(t, inv)); err == nil {
		t.Fatal("adding invertible-mode state into a reverse recorder must fail")
	}
	if err := inv.AddBinary(mustMarshal(t, rev)); err == nil {
		t.Fatal("adding reverse-mode state into an invertible recorder must fail")
	}
}

// TestInferenceDiagStats pins the observability fields: an interval with
// attacks must report nonzero recovery time and a nonzero key yield on
// both engines.
func TestInferenceDiagStats(t *testing.T) {
	for _, engine := range []InferenceEngine{InferenceReverse, InferenceInvertible} {
		d, err := NewDetector(inferenceConfig(0xd1a6, engine), DetectorConfig{Threshold: 60})
		if err != nil {
			t.Fatal(err)
		}
		results := runTrace(t, d, inferenceTrace())
		sawKeys := false
		for _, res := range results {
			if res.Diag.KeysRecovered > 0 {
				sawKeys = true
				if res.Diag.InferenceSeconds <= 0 {
					t.Fatalf("%v: keys recovered but zero inference time", engine)
				}
			}
		}
		if !sawKeys {
			t.Fatalf("%v: no interval recovered any keys", engine)
		}
	}
}
