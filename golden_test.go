package hifind_test

// End-to-end detection regression suite: each scenario builds a fully
// deterministic capture with the internal trace generator, replays it
// through the public facade, and compares the complete per-interval alert
// output against a checked-in golden file. Any PR that shifts detection
// behavior — a threshold tweak, a sketch change, a heuristic reorder —
// shows up as a golden diff instead of slipping through silently.
//
// Each scenario also pins hex(sha256(SaveState())) after the replay in
// <name>.state.sha256 — the absolute anchor for recorded state. Every
// other state-byte check in the repo is relative (replica vs sequential,
// product path vs test reference), so a change to hashing, plan filling,
// chunking or rotation that moves both sides together shows up here and
// nowhere else.
//
// It also pins the replay's counted work in <name>.work: packets observed
// and the reverse-inference counters (nodes, leaves, budget hits, keys
// recovered) read from the detector's telemetry registry. Counted work
// repeats exactly from run to run, so a change that claims to leave the
// recorder and the search untouched can show it without timing anything.
//
// Regenerate after an *intentional* behavior change with:
//
//	go test -run TestGoldenDetection -update .
//
// and review the golden diff like any other code change.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	hifind "github.com/hifind/hifind"
	"github.com/hifind/hifind/internal/netmodel"
	"github.com/hifind/hifind/internal/pcap"
	"github.com/hifind/hifind/internal/telemetry"
	"github.com/hifind/hifind/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden detection files with observed output")

// goldenScenario pairs a trace config with the detector options its
// replay needs: the three evasion scenarios only produce alerts with
// their dedicated detectors switched on, and the benign-only control
// runs with ALL of them on to pin the zero-alert baseline.
type goldenScenario struct {
	cfg  trace.Config
	opts []hifind.Option
}

// options returns the scenario's detector options plus extras, always as
// a fresh slice so callers can append without aliasing.
func (s goldenScenario) options(extra ...hifind.Option) []hifind.Option {
	out := make([]hifind.Option, 0, len(s.opts)+len(extra))
	out = append(out, s.opts...)
	return append(out, extra...)
}

// goldenScenarios is the regression corpus: the two paper-shaped presets,
// a hand-built multi-attack interval, the three evasion scenarios the
// auxiliary detectors exist for, and a benign-only control whose golden
// asserts zero alerts even with every auxiliary detector enabled.
func goldenScenarios() map[string]goldenScenario {
	mixed := trace.Config{
		Seed:            303,
		Start:           time.Date(2005, 5, 10, 0, 0, 0, 0, time.UTC),
		Interval:        time.Minute,
		Intervals:       8,
		InternalPrefix:  0x81690000, // 129.105.0.0
		Servers:         40,
		BackgroundFlows: 600,
		OutboundFlows:   100,
		FailRate:        0.04,
	}
	mixed.Attacks = []trace.Attack{
		{Type: trace.SYNFlood, Spoofed: true, Victim: 0x8169c801, /* 129.105.200.1 */
			Ports: []uint16{80}, StartInterval: 1, EndInterval: 6, Rate: 500,
			ResponseRate: 0.1, Cause: "spoofed flood"},
		{Type: trace.HorizontalScan, Attackers: []netmodel.IPv4{0x0a141401},
			Victim: 0x81698000, Ports: []uint16{445}, Targets: 800,
			StartInterval: 2, EndInterval: 5, Rate: 800, Cause: "worm hscan"},
		{Type: trace.VerticalScan, Attackers: []netmodel.IPv4{0x0a282802},
			Victim: 0x81698010, Ports: verticalPorts(), Targets: 1,
			StartInterval: 3, EndInterval: 6, Rate: 600, Cause: "recon vscan"},
		{Type: trace.BlockScan, Attackers: []netmodel.IPv4{0x0a3c3c03},
			Victim: 0x81698100, Ports: blockPorts(), Targets: 10,
			StartInterval: 2, EndInterval: 6, Rate: 1600, ResponseRate: 0.01,
			Cause: "block sweep"},
	}

	benign := trace.Config{
		Seed:            404,
		Start:           time.Date(2005, 5, 10, 0, 0, 0, 0, time.UTC),
		Interval:        time.Minute,
		Intervals:       8,
		InternalPrefix:  0x81690000,
		Servers:         40,
		BackgroundFlows: 600,
		OutboundFlows:   100,
		FailRate:        0.04,
	}

	allAux := []hifind.Option{
		hifind.WithBurstDetection(),
		hifind.WithPersistentFlowDetection(),
		hifind.WithReflectionDetection(),
	}
	return map[string]goldenScenario{
		"nu-preset":     {cfg: trace.NUConfig(101, 10, 0.5)},
		"lbl-preset":    {cfg: trace.LBLConfig(202, 10, 0.5)},
		"mixed-attacks": {cfg: mixed},
		"benign-only":   {cfg: benign, opts: allAux},
		"burst-pulse": {cfg: trace.BurstPulseConfig(505, 8),
			opts: []hifind.Option{hifind.WithBurstDetection()}},
		"stealth-scan": {cfg: trace.StealthScanConfig(606, 9),
			opts: []hifind.Option{hifind.WithPersistentFlowDetection()}},
		"reflection": {cfg: trace.ReflectionConfig(707, 8),
			opts: []hifind.Option{hifind.WithReflectionDetection()}},
	}
}

func verticalPorts() []uint16 {
	ports := make([]uint16, 0, 64)
	for p := uint16(1); p <= 64; p++ {
		ports = append(ports, p)
	}
	return ports
}

// blockPorts is a 10×20 address-by-port block, hot enough per pair and
// per port that the hscan and vscan constituents both fire and merge.
func blockPorts() []uint16 {
	ports := make([]uint16, 20)
	for i := range ports {
		ports[i] = uint16(7000 + i)
	}
	return ports
}

func TestGoldenDetection(t *testing.T) {
	for name, sc := range goldenScenarios() {
		t.Run(name, func(t *testing.T) {
			cfg := sc.cfg
			g, err := trace.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			w := pcap.NewWriter(&buf)
			if err := g.Stream(w.WritePacket); err != nil {
				t.Fatal(err)
			}
			edge := fmt.Sprintf("%s/16", cfg.InternalPrefix)
			reg := telemetry.NewRegistry()
			d := newCompact(t, sc.options(hifind.WithTelemetry(reg))...)
			results, err := hifind.ReplayPcap(&buf, []string{edge}, d)
			if err != nil {
				t.Fatal(err)
			}
			// Negative control: benign traffic with every auxiliary
			// detector enabled must never produce an auxiliary alert.
			if name == "benign-only" {
				for _, r := range results {
					for _, a := range r.Final {
						switch a.Type {
						case hifind.BurstFlood, hifind.PersistentScan, hifind.Reflection:
							t.Errorf("interval %d: auxiliary alert on benign traffic: %s", r.Interval, a)
						}
					}
				}
			}
			state, err := d.SaveState()
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(state)
			base := filepath.Join("testdata", "golden", name)
			for _, f := range []struct{ path, got string }{
				{base + ".golden", formatGolden(results)},
				{base + ".state.sha256", hex.EncodeToString(sum[:]) + "\n"},
				{base + ".work", formatWork(reg)},
			} {
				if *updateGolden {
					if err := os.MkdirAll(filepath.Dir(f.path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(f.path, []byte(f.got), 0o644); err != nil {
						t.Fatal(err)
					}
					t.Logf("updated %s", f.path)
					continue
				}
				want, err := os.ReadFile(f.path)
				if err != nil {
					t.Fatalf("missing golden (run with -update to create): %v", err)
				}
				if f.got != string(want) {
					t.Errorf("detection output diverged from %s (rerun with -update only if the change is intentional):\n%s",
						f.path, goldenDiff(string(want), f.got))
				}
			}
		})
	}
}

// workCounters are the counted-work series a golden replay pins.
var workCounters = []string{
	"hifind_packets_observed_total",
	"hifind_inference_nodes_total",
	"hifind_inference_leaves_total",
	"hifind_inference_budget_hits_total",
	"hifind_inference_keys_recovered_total",
}

// formatWork renders the counted-work pin: one "name value" line per
// workCounters series, in that order.
func formatWork(reg *telemetry.Registry) string {
	snap := reg.Snapshot()
	var b strings.Builder
	for _, name := range workCounters {
		fmt.Fprintf(&b, "%s %d\n", name, snap[name])
	}
	return b.String()
}

// formatGolden renders replay results into the canonical golden text: one
// header line per interval with the per-phase alert counts, then the
// final alerts sorted lexically (detection order is deterministic, but
// sorting keeps the files stable against harmless reordering).
func formatGolden(results []hifind.Result) string {
	var b strings.Builder
	for _, r := range results {
		fmt.Fprintf(&b, "interval %d: raw=%d classified=%d final=%d\n",
			r.Interval, len(r.Raw), len(r.AfterClassification), len(r.Final))
		lines := make([]string, 0, len(r.Final))
		for _, a := range r.Final {
			lines = append(lines, a.String())
		}
		sort.Strings(lines)
		for _, l := range lines {
			fmt.Fprintf(&b, "  %s\n", l)
		}
	}
	return b.String()
}

// goldenDiff renders a compact first-divergence report; full-file dumps
// drown the signal when one interval shifts.
func goldenDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	max := len(wl)
	if len(gl) > max {
		max = len(gl)
	}
	shown := 0
	for i := 0; i < max && shown < 12; i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			fmt.Fprintf(&b, "line %d:\n  golden: %q\n  got:    %q\n", i+1, w, g)
			shown++
		}
	}
	if shown == 0 {
		return "(files differ only in length)"
	}
	return b.String()
}
