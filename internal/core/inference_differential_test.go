package core

// Offender-key recovery harness: a multi-attack trace with a borderline
// scan, the phase-by-phase alert comparison the differential suites
// share, and the structure-set and observability contracts of recovery.

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

// TestInferenceModeIncompatible: recorders with different structure
// sets (here the reflection monitor on and off) must refuse each other's
// state, in either direction, instead of silently dropping a sketch.
func TestInferenceModeIncompatible(t *testing.T) {
	plain, err := NewRecorder(TestRecorderConfig(0xabcd))
	if err != nil {
		t.Fatal(err)
	}
	cfg := TestRecorderConfig(0xabcd)
	cfg.Reflection = true
	refl, err := NewRecorder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.AddBinary(mustMarshal(t, refl)); err == nil {
		t.Fatal("adding reflection-on state into a reflection-off recorder must fail")
	}
	if err := refl.AddBinary(mustMarshal(t, plain)); err == nil {
		t.Fatal("adding reflection-off state into a reflection-on recorder must fail")
	}
}

// TestInferenceDiagStats pins the observability fields: an interval with
// attacks must report nonzero recovery time and a nonzero key yield, and
// every recovered key was a leaf of a search that expanded it.
func TestInferenceDiagStats(t *testing.T) {
	d, err := NewDetector(TestRecorderConfig(0xd1a6), DetectorConfig{Threshold: 60})
	if err != nil {
		t.Fatal(err)
	}
	results := runTrace(t, d, inferenceTrace())
	sawKeys := false
	for _, res := range results {
		if res.Diag.KeysRecovered > 0 {
			sawKeys = true
			if res.Diag.InferenceSeconds <= 0 {
				t.Fatal("keys recovered but zero inference time")
			}
			if dg := res.Diag; dg.InferenceLeaves < dg.KeysRecovered || dg.InferenceNodes < dg.InferenceLeaves {
				t.Fatalf("interval %d: %d keys from %d leaves of %d nodes",
					res.Interval, dg.KeysRecovered, dg.InferenceLeaves, dg.InferenceNodes)
			}
		}
	}
	if !sawKeys {
		t.Fatal("no interval recovered any keys")
	}
}
