package core

// Offender-key recovery harness: a multi-attack trace with a borderline
// scan, the phase-by-phase alert comparison the differential suites
// share, and the structure-set and observability contracts of recovery.

import (
	"testing"
	"time"

	"github.com/hifind/hifind/internal/burst"
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
// every recovered key was a leaf of a search that expanded it. The burst
// and reflection monitors' searches count too: each adds nodes to every
// detecting interval, and a burst slot that runs into its budget is a
// budget hit instead of a silent miss.
func TestInferenceDiagStats(t *testing.T) {
	check := func(t *testing.T, results []IntervalResult) {
		t.Helper()
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
	t.Run("three steps", func(t *testing.T) {
		d, err := NewDetector(TestRecorderConfig(0xd1a6), DetectorConfig{Threshold: 60})
		if err != nil {
			t.Fatal(err)
		}
		check(t, runTrace(t, d, inferenceTrace()))
	})
	// Each monitor's searches add to the three steps' work on the same
	// trace: every detecting interval expands more nodes with it on.
	tc := inferenceTrace()
	tc.Attacks = append(tc.Attacks, trace.ReflectionConfig(707, tc.Intervals).Attacks...)
	plain, err := NewDetector(TestRecorderConfig(0xd1a6), DetectorConfig{Threshold: 60})
	if err != nil {
		t.Fatal(err)
	}
	want := runTrace(t, plain, tc)
	for name, monitor := range map[string]func(*RecorderConfig){
		"burst":      func(c *RecorderConfig) { c.BurstWindow = time.Minute / burst.Slots },
		"reflection": func(c *RecorderConfig) { c.Reflection = true },
	} {
		t.Run(name, func(t *testing.T) {
			cfg := TestRecorderConfig(0xd1a6)
			monitor(&cfg)
			d, err := NewDetector(cfg, DetectorConfig{Threshold: 60})
			if err != nil {
				t.Fatal(err)
			}
			got := runTrace(t, d, tc)
			check(t, got)
			for i, res := range got {
				if w := want[i].Diag.InferenceNodes; w > 0 && res.Diag.InferenceNodes <= w {
					t.Errorf("interval %d: %d search nodes with the %s monitor on, %d without",
						i, res.Diag.InferenceNodes, name, w)
				}
			}
		})
	}
	// A saturated burst slot reports its budget hit: 300 pulses of 40
	// SYNs in one slot drive that slot's search into its node cap.
	t.Run("saturated burst slot", func(t *testing.T) {
		if raceEnabled {
			t.Skip("a search that runs into its node cap takes minutes under the race detector")
		}
		pulses := func(start time.Time) []netmodel.Packet {
			var pkts []netmodel.Packet
			for v := uint32(0); v < 300; v++ {
				for i := uint32(0); i < 40; i++ {
					pkts = append(pkts, netmodel.Packet{
						Timestamp: start.Add(15*time.Second + time.Duration(i)*100*time.Millisecond),
						SrcIP:     netmodel.IPv4(0xc8000000 | (v*40+i)*7919%(1<<24)),
						DstIP:     netmodel.IPv4(0x8169d000 | v), SrcPort: uint16(2048 + i), DstPort: 80,
						Flags: netmodel.FlagSYN, Dir: netmodel.Inbound})
				}
			}
			return pkts
		}
		cfg := PaperRecorderConfig(0xd1a6)
		off := runAuxLane(t, cfg, pulses).Diag.InferenceBudgetHits
		cfg.BurstWindow = time.Minute / burst.Slots
		if on := runAuxLane(t, cfg, pulses).Diag.InferenceBudgetHits; on <= off {
			t.Errorf("%d budget hits with the burst monitor on, %d without", on, off)
		}
	})
}

// auxLaneVictims is the victim count of the alias tests below: enough
// concurrent heavy keys that reverse hashing recovers dozens of
// one-word modular-hash aliases next to them, which only the lanes'
// verifiers can tell apart.
const auxLaneVictims = 32

// auxLaneBackground returns one interval of benign traffic spread over
// the minute from start: answered inbound connections to local
// servers, which cancel in the #SYN−#SYN/ACK structures, and answered
// outbound connections, which cancel in the reflection monitor.
func auxLaneBackground(start time.Time) []netmodel.Packet {
	pkts := make([]netmodel.Packet, 0, 1600)
	for i := uint32(0); i < 400; i++ {
		ts := start.Add(time.Duration(i) * time.Minute / 400)
		remote := netmodel.IPv4(0x0a000000 | i*7919)
		local := netmodel.IPv4(0x81690000 | i%40)
		port := uint16(30000 + i)
		pkts = append(pkts,
			netmodel.Packet{Timestamp: ts, SrcIP: remote, DstIP: local, SrcPort: port, DstPort: 80,
				Flags: netmodel.FlagSYN, Dir: netmodel.Inbound},
			netmodel.Packet{Timestamp: ts, SrcIP: local, DstIP: remote, SrcPort: 80, DstPort: port,
				Flags: netmodel.FlagSYN | netmodel.FlagACK, Dir: netmodel.Outbound},
			netmodel.Packet{Timestamp: ts, SrcIP: local, DstIP: remote, SrcPort: port, DstPort: 443,
				Flags: netmodel.FlagSYN, Dir: netmodel.Outbound},
			netmodel.Packet{Timestamp: ts, SrcIP: remote, DstIP: local, SrcPort: 443, DstPort: port,
				Flags: netmodel.FlagSYN | netmodel.FlagACK, Dir: netmodel.Inbound})
	}
	return pkts
}

// runAuxLane replays a quiet warm-up interval and then an attack
// interval over the same background, returning the attack interval's
// result.
func runAuxLane(t *testing.T, rcfg RecorderConfig, attack func(start time.Time) []netmodel.Packet) IntervalResult {
	t.Helper()
	d, err := NewDetector(rcfg, DetectorConfig{Threshold: 60})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2005, 5, 10, 0, 0, 0, 0, time.UTC)
	var res IntervalResult
	for i, pkts := range [][]netmodel.Packet{nil, attack(start.Add(time.Minute))} {
		for _, p := range auxLaneBackground(start.Add(time.Duration(i) * time.Minute)) {
			d.Observe(p)
		}
		for _, p := range pkts {
			d.Observe(p)
		}
		if res, err = d.EndInterval(); err != nil {
			t.Fatal(err)
		}
	}
	return res
}

// requireOnlyVictims fails on any alert of type typ whose key is not a
// victim and on a lane that recovered fewer than all but one of them.
func requireOnlyVictims(t *testing.T, res IntervalResult, typ AlertType, victims map[uint64]bool) {
	t.Helper()
	found := 0
	for _, a := range res.Final {
		if a.Type != typ {
			continue
		}
		if !victims[netmodel.PackDIPDport(a.DIP, a.Port)] {
			t.Errorf("alias alert: %s", a)
			continue
		}
		found++
	}
	if found < len(victims)-1 {
		t.Errorf("%d of %d victims recovered", found, len(victims))
	}
	t.Logf("%d of %d victims recovered; %d search nodes, %d budget hits",
		found, len(victims), res.Diag.InferenceNodes, res.Diag.InferenceBudgetHits)
}

// TestReflectionLaneEmitsNoAliases: 32 hosts each receive 150
// unsolicited SYN/ACKs from one service port in the same interval.
// Every reflection alert must name one of them.
func TestReflectionLaneEmitsNoAliases(t *testing.T) {
	cfg := PaperRecorderConfig(0xa11a5)
	cfg.Reflection = true
	victims := make(map[uint64]bool)
	res := runAuxLane(t, cfg, func(start time.Time) []netmodel.Packet {
		var pkts []netmodel.Packet
		for v := uint32(0); v < auxLaneVictims; v++ {
			victim := netmodel.IPv4(0x8169c000 | v*37)
			port := []uint16{53, 123, 1900, 389}[v%4]
			victims[netmodel.PackDIPDport(victim, port)] = true
			for i := uint32(0); i < 150; i++ {
				pkts = append(pkts, netmodel.Packet{
					Timestamp: start.Add(time.Duration(i) * 400 * time.Millisecond),
					SrcIP:     netmodel.IPv4(0xc0000000 | (v*150+i)*104729%(1<<24)),
					DstIP:     victim, SrcPort: port, DstPort: uint16(1024 + i),
					Flags: netmodel.FlagSYN | netmodel.FlagACK, Dir: netmodel.Inbound})
			}
		}
		return pkts
	})
	requireOnlyVictims(t, res, AlertReflection, victims)
}

// TestBurstLaneEmitsNoAliases: 32 services each take a 40-SYN spoofed
// pulse inside the same 7.5-second slot, under the interval's flood
// threshold but over the slot's. Every burst alert must name one of
// them.
func TestBurstLaneEmitsNoAliases(t *testing.T) {
	cfg := PaperRecorderConfig(0xb0257)
	cfg.BurstWindow = time.Minute / burst.Slots
	victims := make(map[uint64]bool)
	res := runAuxLane(t, cfg, func(start time.Time) []netmodel.Packet {
		var pkts []netmodel.Packet
		for v := uint32(0); v < auxLaneVictims; v++ {
			victim := netmodel.IPv4(0x8169d000 | v*41)
			port := []uint16{80, 443, 25, 22}[v%4]
			victims[netmodel.PackDIPDport(victim, port)] = true
			for i := uint32(0); i < 40; i++ {
				pkts = append(pkts, netmodel.Packet{
					Timestamp: start.Add(15*time.Second + time.Duration(i)*100*time.Millisecond),
					SrcIP:     netmodel.IPv4(0xc8000000 | (v*40+i)*7919%(1<<24)),
					DstIP:     victim, SrcPort: uint16(2048 + i), DstPort: port,
					Flags: netmodel.FlagSYN, Dir: netmodel.Inbound})
			}
		}
		return pkts
	})
	requireOnlyVictims(t, res, AlertBurstFlood, victims)
}
