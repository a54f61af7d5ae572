package core

import (
	"testing"

	"github.com/hifind/hifind/internal/netmodel"
	"github.com/hifind/hifind/internal/trace"
)

// The extension tests cover behaviour beyond the paper's evaluation:
// block-scan classification (named in the paper's threat model, §3.2,
// but not separately evaluated), forecasting under diurnal swing and
// checkpoint/restore.

func TestIngressIgnoresOutboundScan(t *testing.T) {
	// A compromised internal host scans external port 445 while internal
	// clients browse outside. The detector protects the inbound direction
	// (inbound SYNs against outbound SYN/ACKs), so neither the answered
	// browsing nor the unanswered outbound scan may raise an alert.
	d := testDetector(t)
	scanner := netmodel.MustParseIPv4("129.105.66.6") // internal
	var alerts []Alert
	for iv := 0; iv < 4; iv++ {
		for i := 0; i < 300; i++ {
			client := netmodel.IPv4(0x81690000 + uint32(i%200))
			server := netmodel.IPv4(0x08080000 + uint32(i))
			sport := uint16(30000 + i)
			d.Observe(netmodel.Packet{SrcIP: client, DstIP: server, SrcPort: sport, DstPort: 443,
				Flags: netmodel.FlagSYN, Dir: netmodel.Outbound})
			d.Observe(netmodel.Packet{SrcIP: server, DstIP: client, SrcPort: 443, DstPort: sport,
				Flags: netmodel.FlagSYN | netmodel.FlagACK, Dir: netmodel.Inbound})
		}
		if iv >= 1 {
			for i := 0; i < 200; i++ { // the outbound scan, unanswered
				d.Observe(netmodel.Packet{SrcIP: scanner, DstIP: netmodel.IPv4(0x0a000000 + uint32(iv*200+i)),
					SrcPort: uint16(40000 + i), DstPort: 445,
					Flags: netmodel.FlagSYN, Dir: netmodel.Outbound})
			}
		}
		res, err := d.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		alerts = append(alerts, res.Final...)
	}
	if len(alerts) != 0 {
		t.Errorf("ingress detector alerted on outbound traffic: %v", alerts)
	}
}

func TestBlockScanMerged(t *testing.T) {
	// A block scan (10 addresses × 20 ports, hot enough that both the
	// per-pair and per-port keys clear the threshold) must surface as ONE
	// block-scan alert, not a pile of vscan/hscan alerts.
	cfg := baseTraceConfig(33, 10)
	attacker := netmodel.MustParseIPv4("203.0.113.44")
	ports := make([]uint16, 20)
	for i := range ports {
		ports[i] = uint16(7000 + i)
	}
	cfg.Attacks = []trace.Attack{{
		Type: trace.BlockScan, Attackers: []netmodel.IPv4{attacker},
		Victim: netmodel.MustParseIPv4("129.105.60.0"), Ports: ports, Targets: 10,
		StartInterval: 3, EndInterval: 8, Rate: 1600, ResponseRate: 0.01, Cause: "block sweep",
	}}
	d := testDetector(t)
	results := runTrace(t, d, cfg)
	blocks := dedup(results, final, AlertBlockScan)
	if len(blocks) != 1 {
		t.Fatalf("block-scan alerts = %d, want 1", len(blocks))
	}
	for _, a := range blocks {
		if a.SIP != attacker {
			t.Errorf("block scan attributed to %s", a.SIP)
		}
		if a.FanoutEstimate < 4 {
			t.Errorf("block scan merged only %d keys", a.FanoutEstimate)
		}
	}
	// The constituents must be gone from the final phase.
	leftover := 0
	for _, r := range results {
		for _, a := range r.Final {
			if (a.Type == AlertVScan || a.Type == AlertHScan) && a.SIP == attacker {
				leftover++
			}
		}
	}
	if leftover != 0 {
		t.Errorf("%d unmerged scan alerts for the block scanner", leftover)
	}
}

func TestBlockScanDoesNotMergeIndependentScans(t *testing.T) {
	// One source running a single hscan and another running a single
	// vscan must NOT produce block-scan alerts (different sources), and a
	// source with one of each stays below the block-scan minimum of two
	// per kind.
	cfg := baseTraceConfig(34, 10)
	h := netmodel.MustParseIPv4("203.0.113.50")
	v := netmodel.MustParseIPv4("203.0.113.60")
	ports := make([]uint16, 400)
	for i := range ports {
		ports[i] = uint16(100 + i)
	}
	cfg.Attacks = []trace.Attack{
		{Type: trace.HorizontalScan, Attackers: []netmodel.IPv4{h},
			Victim: netmodel.MustParseIPv4("129.105.0.0"), Ports: []uint16{445},
			Targets: 2000, StartInterval: 3, EndInterval: 8, Rate: 200, ResponseRate: 0.02, Cause: "h"},
		{Type: trace.VerticalScan, Attackers: []netmodel.IPv4{v},
			Victim: netmodel.MustParseIPv4("129.105.150.9"), Ports: ports,
			StartInterval: 3, EndInterval: 8, Rate: 150, ResponseRate: 0.02, Cause: "v"},
	}
	d := testDetector(t)
	results := runTrace(t, d, cfg)
	if n := len(dedup(results, final, AlertBlockScan)); n != 0 {
		t.Errorf("independent scans merged into %d block scans", n)
	}
	if len(dedup(results, final, AlertHScan)) != 1 || len(dedup(results, final, AlertVScan)) != 1 {
		t.Error("independent scans lost")
	}
}

func TestBlockScanAlertRendering(t *testing.T) {
	a := Alert{Type: AlertBlockScan, SIP: 7, FanoutEstimate: 12, Estimate: 900}
	if a.String() == "" || a.Type.String() != "blockscan" {
		t.Error("block-scan rendering broken")
	}
	if a.Key().Type != AlertBlockScan {
		t.Error("key type wrong")
	}
}

func TestEWMAAbsorbsDiurnalSwing(t *testing.T) {
	// Heavy but smooth background variation (±40% across the trace) must
	// not raise alerts — the noise-removal property the paper claims for
	// forecasting (§3.1). A naive "threshold on current volume" would fire
	// at every peak.
	cfg := baseTraceConfig(40, 16)
	cfg.BackgroundFlows = 2500
	cfg.DiurnalAmplitude = 0.4
	d := testDetector(t)
	results := runTrace(t, d, cfg)
	for _, r := range results {
		if len(r.Final) != 0 {
			t.Fatalf("interval %d: diurnal swing alerted: %v", r.Interval, r.Final)
		}
	}
}

func TestCheckpointRestoreContinuesIdentically(t *testing.T) {
	// Run a trace straight through, and run it again with a checkpoint/
	// restore into a fresh detector at the halfway interval: both runs
	// must produce identical alerts (detection is deterministic).
	cfg := baseTraceConfig(55, 12)
	victim := netmodel.MustParseIPv4("129.105.77.1")
	cfg.Attacks = []trace.Attack{
		{Type: trace.SYNFlood, Spoofed: true, Victim: victim, Ports: []uint16{80},
			StartInterval: 7, EndInterval: 11, Rate: 600, ResponseRate: 0.12, Cause: "post-restart flood"},
		{Type: trace.Misconfig, Victim: netmodel.MustParseIPv4("129.105.3.9"), Ports: []uint16{80},
			StartInterval: 2, EndInterval: 11, Rate: 240, Cause: "pre-restart misconfig"},
	}
	gen, err := trace.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	runFrom := func(d *Detector, lo, hi int) []Alert {
		var out []Alert
		for i := lo; i < hi; i++ {
			pkts, err := gen.GenerateInterval(i)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pkts {
				d.Observe(p)
			}
			res, err := d.EndInterval()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res.Final...)
		}
		return out
	}

	straight := testDetector(t)
	wantAlerts := runFrom(straight, 0, 12)

	first := testDetector(t)
	gotAlerts := runFrom(first, 0, 6)
	state, err := first.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	second := testDetector(t) // "process restart"
	if err := second.RestoreState(state); err != nil {
		t.Fatal(err)
	}
	if second.Interval() != 6 {
		t.Fatalf("restored interval = %d", second.Interval())
	}
	gotAlerts = append(gotAlerts, runFrom(second, 6, 12)...)

	if len(gotAlerts) != len(wantAlerts) {
		t.Fatalf("restored run produced %d alerts, straight run %d", len(gotAlerts), len(wantAlerts))
	}
	for i := range wantAlerts {
		if gotAlerts[i].Key() != wantAlerts[i].Key() || gotAlerts[i].Interval != wantAlerts[i].Interval {
			t.Fatalf("alert %d differs: %v vs %v", i, gotAlerts[i], wantAlerts[i])
		}
	}
	// Specifically: the misconfiguration that became active before the
	// restart must still be filtered after it (the Bloom filter and
	// forecasts survived), and the flood after the restart detected.
	foundFlood := false
	for _, a := range gotAlerts {
		if a.Type == AlertSYNFlood && a.DIP == victim {
			foundFlood = true
		}
		if a.Type == AlertSYNFlood && a.DIP == netmodel.MustParseIPv4("129.105.3.9") {
			t.Error("misconfig false positive after restore")
		}
	}
	if !foundFlood {
		t.Error("post-restart flood missed")
	}
}

func TestRestoreRejectsCorruptState(t *testing.T) {
	d := testDetector(t)
	state, err := d.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RestoreState(state[:8]); err == nil {
		t.Error("truncated state accepted")
	}
	bad := append([]byte(nil), state...)
	bad[0] ^= 1
	if err := d.RestoreState(bad); err == nil {
		t.Error("bad magic accepted")
	}
	if err := d.RestoreState(append(state, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
	// Mismatched configuration must be rejected (different geometry).
	other, err := NewDetector(PaperRecorderConfig(0xfeed), DetectorConfig{Threshold: 60})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.RestoreState(state); err == nil {
		t.Error("state restored into mismatched configuration")
	}
}
