package trace

import (
	"time"

	"github.com/hifind/hifind/internal/burst"
	"github.com/hifind/hifind/internal/netmodel"
)

// The preset traces mirror the paper's two evaluation datasets in miniature
// (DESIGN.md §2). Event counts scale linearly with the Scale parameter;
// Scale=1 is sized for CI-speed runs, the benchmark harness uses larger
// scales. Attack rates are expressed against the paper's detection
// threshold of 60 unresponded SYNs per 1-minute interval.

// threshold-relative rates used by the presets.
const (
	presetThreshold = 60
	floodRate       = 10 * presetThreshold    // unmistakable flood
	scanRate        = 2 * presetThreshold     // comfortable scan
	stealthPerKey   = presetThreshold * 4 / 5 // per-{DIP,Dport} share below threshold
)

// PresetScale holds the per-type event counts of a preset before scaling.
type PresetScale struct {
	Floods        int // real SYN floods (mixed spoofed / non-spoofed)
	StealthFloods int // multi-port floods → raw vscan false positives
	ClusterFloods int // multi-victim floods → raw hscan false positives
	HScans        int
	VScans        int
	Congestions   int // transient outages → raw flooding false positives
	Misconfigs    int // dark-space hotspots → raw flooding false positives
}

// scaled multiplies every count, keeping at least the unscaled value's
// sign (a nonzero count never scales to zero).
func (p PresetScale) scaled(scale float64) PresetScale {
	s := func(n int) int {
		if n == 0 {
			return 0
		}
		v := int(float64(n) * scale)
		if v < 1 {
			v = 1
		}
		return v
	}
	return PresetScale{
		Floods:        s(p.Floods),
		StealthFloods: s(p.StealthFloods),
		ClusterFloods: s(p.ClusterFloods),
		HScans:        s(p.HScans),
		VScans:        s(p.VScans),
		Congestions:   s(p.Congestions),
		Misconfigs:    s(p.Misconfigs),
	}
}

// scanScenario carries the Tables 7–8 flavor: real worm/scanner behaviours
// with their service ports.
type scanScenario struct {
	port  uint16
	cause string
}

var hscanScenarios = []scanScenario{
	{1433, "SQLSnake scan"},
	{22, "Scan SSH"},
	{3306, "MySQL Bot scans"},
	{6101, "Unknown scan"},
	{4899, "Rahack worm"},
	{135, "Nachi or MSBlast worm"},
	{445, "Sasser and Korgo worm"},
	{139, "NetBIOS scan"},
	{5554, "Sasser worm"},
	{80, "HTTP worm scan"},
}

// NUConfig builds the NU-like trace: a busy university edge with a mixture
// of floods, scans and benign anomalies, shaped after paper Table 4's NU
// row. intervals must be at least 10.
func NUConfig(seed int64, intervals int, scale float64) Config {
	counts := PresetScale{
		Floods:        5,
		StealthFloods: 5,
		ClusterFloods: 4,
		HScans:        24,
		VScans:        2,
		Congestions:   7,
		Misconfigs:    4,
	}.scaled(scale)
	prefix := netmodel.MustParseIPv4("129.105.0.0")
	cfg := Config{
		Seed:             seed,
		Start:            time.Date(2005, 5, 10, 0, 0, 0, 0, time.UTC),
		Interval:         time.Minute,
		Intervals:        intervals,
		InternalPrefix:   prefix,
		Servers:          120,
		BackgroundFlows:  2500,
		DiurnalAmplitude: 0.3,
		OutboundFlows:    600,
		FailRate:         0.04,
		P2PHosts:         3,
		P2PFanout:        50,
	}
	b := presetBuilder{cfg: &cfg, prefix: prefix, seed: seed, intervals: intervals}
	b.addFloods(counts.Floods)
	b.addStealthFloods(counts.StealthFloods)
	b.addClusterFloods(counts.ClusterFloods)
	b.addHScans(counts.HScans)
	b.addMixedHScans(2)
	b.addSlowHScans(2)
	b.addVScans(counts.VScans)
	b.addCongestions(counts.Congestions)
	b.addMisconfigs(counts.Misconfigs)
	b.addFlashCrowd()
	return cfg
}

// LBLConfig builds the LBL-like trace: scan-heavy, no real SYN flooding
// (paper Table 6's LBL row), with benign anomalies that naive aggregate
// detectors misread as floods.
func LBLConfig(seed int64, intervals int, scale float64) Config {
	counts := PresetScale{
		Floods:        0,
		StealthFloods: 4, // multi-port retry storms → raw vscan FPs
		ClusterFloods: 3,
		HScans:        18,
		VScans:        1,
		Congestions:   5,
		Misconfigs:    3,
	}.scaled(scale)
	prefix := netmodel.MustParseIPv4("131.243.0.0")
	cfg := Config{
		Seed:             seed,
		Start:            time.Date(2004, 11, 1, 0, 0, 0, 0, time.UTC),
		Interval:         time.Minute,
		Intervals:        intervals,
		InternalPrefix:   prefix,
		Servers:          80,
		BackgroundFlows:  1800,
		DiurnalAmplitude: 0.25,
		OutboundFlows:    500,
		FailRate:         0.03,
		P2PHosts:         2,
		P2PFanout:        40,
	}
	b := presetBuilder{cfg: &cfg, prefix: prefix, seed: seed, intervals: intervals}
	// LBL has no real floods; its raw scan false positives come from
	// benign single-client retry storms against dead services.
	b.addRetryStorms(counts.StealthFloods, counts.ClusterFloods)
	b.addHScans(counts.HScans)
	b.addVScans(counts.VScans)
	b.addCongestions(counts.Congestions)
	b.addMisconfigs(counts.Misconfigs)
	return cfg
}

// BurstPulseConfig builds the burst-flood scenario: spoofed SYN pulses
// whose per-interval totals stay under the detection threshold (so the
// EWMA path never alarms) but whose SYNs are compressed into a few
// seconds of each interval, plus one sustained flood the burst detector's
// long-duration filter must hand back to the EWMA path. intervals must be
// at least 6.
func BurstPulseConfig(seed int64, intervals int) Config {
	prefix := netmodel.MustParseIPv4("129.105.0.0")
	cfg := Config{
		Seed:            seed,
		Start:           time.Date(2005, 5, 10, 0, 0, 0, 0, time.UTC),
		Interval:        time.Minute,
		Intervals:       intervals,
		InternalPrefix:  prefix,
		Servers:         40,
		BackgroundFlows: 400,
		OutboundFlows:   80,
		FailRate:        0.04,
	}
	// Every pulse is confined to the interior of one of the burst
	// monitor's windows, so a whole pulse lands in a single slot.
	window := cfg.Interval / burst.Slots // 7.5s
	cfg.Attacks = []Attack{
		{Type: BurstPulse, Spoofed: true, Victim: prefix | 0x9b01,
			Ports: []uint16{80}, StartInterval: 1, EndInterval: intervals - 2,
			Rate: 48, BurstOffset: 2*window + 500*time.Millisecond, BurstWidth: 4 * time.Second,
			Cause: "spoofed pulse flood (sub-interval burst)"},
		{Type: BurstPulse, Spoofed: true, Victim: prefix | 0xa447,
			Ports: []uint16{443}, StartInterval: 2, EndInterval: intervals - 1,
			Rate: 45, BurstOffset: 4*window + time.Second, BurstWidth: 5 * time.Second,
			Cause: "spoofed pulse flood (sub-interval burst)"},
		// The sustained flood exceeds the threshold in every slot and in
		// the interval total: the EWMA path owns it, and the burst
		// detector's across-slot filter must suppress it.
		{Type: SYNFlood, Spoofed: true, Victim: prefix | 0x8d10,
			Ports: []uint16{25}, StartInterval: 2, EndInterval: intervals - 2,
			Rate: floodRate, ResponseRate: 0.1, Cause: "sustained spoofed flood"},
	}
	return cfg
}

// StealthScanConfig builds the persistent-and-sparse scenario: horizontal
// scans whose per-interval rates sit in the sparse band below the
// detection threshold but recur interval after interval, plus one fast
// scan the EWMA path already owns. intervals must be at least 8.
func StealthScanConfig(seed int64, intervals int) Config {
	prefix := netmodel.MustParseIPv4("129.105.0.0")
	cfg := Config{
		Seed:            seed,
		Start:           time.Date(2005, 5, 10, 0, 0, 0, 0, time.UTC),
		Interval:        time.Minute,
		Intervals:       intervals,
		InternalPrefix:  prefix,
		Servers:         40,
		BackgroundFlows: 400,
		OutboundFlows:   80,
		FailRate:        0.04,
	}
	cfg.Attacks = []Attack{
		{Type: StealthScan, Attackers: []netmodel.IPv4{0x172a0c05}, // 23.42.12.5
			Victim: prefix & 0xffff0000, Ports: []uint16{23}, Targets: 1000,
			StartInterval: 1, EndInterval: intervals - 1,
			Rate: 2 * presetThreshold / 5, ResponseRate: 0.02,
			Cause: "low-rate telnet sweep (below threshold, persistent)"},
		{Type: StealthScan, Attackers: []netmodel.IPv4{0x2d130b07}, // 45.19.11.7
			Victim: prefix & 0xffff0000, Ports: []uint16{1433}, Targets: 600,
			StartInterval: 2, EndInterval: intervals - 1,
			Rate: 3 * presetThreshold / 5, ResponseRate: 0.02,
			Cause: "low-rate SQL sweep (below threshold, persistent)"},
		// A conventional fast scan for contrast: its raw per-interval count
		// exceeds the threshold, so the EWMA path alerts and the sparse
		// band excludes it from persistence tracking.
		{Type: HorizontalScan, Attackers: []netmodel.IPv4{0x3f200118}, // 63.32.1.24
			Victim: prefix & 0xffff0000, Ports: []uint16{445}, Targets: 2000,
			StartInterval: 2, EndInterval: intervals - 2,
			Rate: 2 * presetThreshold, ResponseRate: 0.02, Cause: "fast worm scan"},
	}
	return cfg
}

// ReflectionConfig builds the reflection/amplification scenario: pools of
// reflectors spread across distinct /8 networks fire unsolicited SYN/ACKs
// at internal victims. The inbound-SYN structures never see the attack —
// only the reflection detector's unsolicited-SYN/ACK balance does — and
// the backscatter validator (pointed inbound) serves as the ground-truth
// witness. intervals must be at least 6.
func ReflectionConfig(seed int64, intervals int) Config {
	prefix := netmodel.MustParseIPv4("129.105.0.0")
	cfg := Config{
		Seed:            seed,
		Start:           time.Date(2005, 5, 10, 0, 0, 0, 0, time.UTC),
		Interval:        time.Minute,
		Intervals:       intervals,
		InternalPrefix:  prefix,
		Servers:         40,
		BackgroundFlows: 400,
		OutboundFlows:   120,
		FailRate:        0.04,
	}
	cfg.Attacks = []Attack{
		{Type: Reflection, Victim: prefix | 0x93c5, Ports: []uint16{53},
			Reflectors: 24, StartInterval: 1, EndInterval: intervals - 2,
			Rate: 200, Cause: "DNS reflection (24 reflectors)"},
		{Type: Reflection, Victim: prefix | 0xb214, Ports: []uint16{123},
			Reflectors: 30, StartInterval: 2, EndInterval: intervals - 1,
			Rate: 150, Cause: "NTP reflection (30 reflectors)"},
	}
	return cfg
}

// presetBuilder derives deterministic attack placements from the seed.
type presetBuilder struct {
	cfg       *Config
	prefix    netmodel.IPv4
	seed      int64
	intervals int
	n         int // attacks placed, for address/offset derivation
}

// slot returns a deterministic start interval leaving room for dur.
func (b *presetBuilder) slot(dur int) (start, end int) {
	span := b.intervals - dur - 3
	if span < 1 {
		span = 1
	}
	start = 3 + int((uint64(b.seed)*2654435761+uint64(b.n)*40503)%uint64(span))
	end = start + dur - 1
	if end >= b.intervals {
		end = b.intervals - 1
	}
	return start, end
}

// extIP derives a stable external attacker address.
func (b *presetBuilder) extIP() netmodel.IPv4 {
	b.n++
	ip := netmodel.IPv4(0xc6000000) + netmodel.IPv4(uint32(b.n)*65537+uint32(b.seed&0xffff)) // 198.x.x.x band
	return ip
}

// litIP returns an internal address hosting services (upper half of /16);
// darkIP one from the dark lower half.
func (b *presetBuilder) litIP() netmodel.IPv4 {
	b.n++
	return b.prefix&0xffff0000 | netmodel.IPv4(0x8000+(uint32(b.n)*769)%0x7f00)
}

func (b *presetBuilder) darkIP() netmodel.IPv4 {
	b.n++
	return b.prefix&0xffff0000 | netmodel.IPv4(0x0100+(uint32(b.n)*521)%0x6f00)
}

func (b *presetBuilder) addFloods(n int) {
	floodPorts := []uint16{80, 443, 25, 53}
	for i := 0; i < n; i++ {
		start, end := b.slot(5)
		a := Attack{
			Type:          SYNFlood,
			Victim:        b.litIP(),
			Ports:         []uint16{floodPorts[i%len(floodPorts)]},
			StartInterval: start,
			EndInterval:   end,
			Rate:          floodRate,
			ResponseRate:  0.12, // overwhelmed victim answers a trickle
			Cause:         "SYN flood",
		}
		if i%2 == 0 {
			a.Spoofed = true
			a.Cause = "spoofed SYN flood"
		} else {
			a.Attackers = []netmodel.IPv4{b.extIP()}
		}
		b.cfg.Attacks = append(b.cfg.Attacks, a)
	}
}

// addStealthFloods injects multi-port floods whose per-{DIP,Dport} rate
// stays under threshold: step 1 misses them, step 2 flags the {SIP,DIP}
// pair as a vertical scan, and only the 2D port-concentration test (Phase
// 2) reveals them as floods — the paper's raw-vscan false positives.
func (b *presetBuilder) addStealthFloods(n int) {
	for i := 0; i < n; i++ {
		start, end := b.slot(4)
		base := uint16(8000 + i*10)
		b.cfg.Attacks = append(b.cfg.Attacks, Attack{
			Type:          SYNFlood,
			Attackers:     []netmodel.IPv4{b.extIP()},
			Victim:        b.litIP(),
			Ports:         []uint16{base, base + 1, base + 2},
			StartInterval: start,
			EndInterval:   end,
			Rate:          3 * stealthPerKey,
			ResponseRate:  0.1,
			Cause:         "multi-port SYN flood (raw vscan FP)",
		})
	}
}

// addClusterFloods injects floods spread over a small victim cluster:
// per-victim rates stay under threshold, {SIP,Dport} triggers, and Phase 2
// removes the resulting horizontal-scan false positive.
func (b *presetBuilder) addClusterFloods(n int) {
	for i := 0; i < n; i++ {
		start, end := b.slot(4)
		b.cfg.Attacks = append(b.cfg.Attacks, Attack{
			Type:          SYNFlood,
			Attackers:     []netmodel.IPv4{b.extIP()},
			Victim:        b.litIP(),
			Ports:         []uint16{443},
			Targets:       3,
			StartInterval: start,
			EndInterval:   end,
			Rate:          3 * stealthPerKey,
			ResponseRate:  0.1,
			Cause:         "cluster SYN flood (raw hscan FP)",
		})
	}
}

func (b *presetBuilder) addHScans(n int) {
	for i := 0; i < n; i++ {
		sc := hscanScenarios[i%len(hscanScenarios)]
		start, end := b.slot(3 + i%4)
		// Vary sweep width so Tables 7–8 have distinct top and bottom
		// entries: early scans sweep widely, later ones touch few hosts.
		targets := 5000 / (1 + i) // 5000, 2500, 1666, … tail ≈ 64
		if targets < 64 {
			targets = 64
		}
		b.cfg.Attacks = append(b.cfg.Attacks, Attack{
			Type:          HorizontalScan,
			Attackers:     []netmodel.IPv4{b.extIP()},
			Victim:        b.prefix & 0xffff0000, // sweep from the bottom of the /16
			Ports:         []uint16{sc.port},
			Targets:       targets,
			StartInterval: start,
			EndInterval:   end,
			Rate:          scanRate + (i%5)*presetThreshold,
			ResponseRate:  0.02,
			Cause:         sc.cause,
		})
	}
}

// addMixedHScans injects scanners whose probes succeed half the time
// (half-open services, honeypots answering). HiFIND still sees the SYN
// surplus, but TRW's random walk stays balanced — the "detected by HiFIND
// but not TRW" rows of paper Table 5.
func (b *presetBuilder) addMixedHScans(n int) {
	for i := 0; i < n; i++ {
		start, end := b.slot(4)
		b.cfg.Attacks = append(b.cfg.Attacks, Attack{
			Type:          HorizontalScan,
			Attackers:     []netmodel.IPv4{b.extIP()},
			Victim:        b.prefix&0xffff0000 | 0x8000, // lit space answers
			Ports:         []uint16{80},
			Targets:       2000,
			StartInterval: start,
			EndInterval:   end,
			Rate:          4 * presetThreshold,
			ResponseRate:  0.65, // enough successes that TRW's walk drifts benign
			Cause:         "scan with mixed outcomes (TRW-blind)",
		})
	}
}

// addSlowHScans injects scanners below HiFIND's per-interval threshold
// that still accumulate failures over time — the "detected by TRW but not
// HiFIND" rows of Table 5 (the paper calls them combinations of multiple
// small scans).
func (b *presetBuilder) addSlowHScans(n int) {
	for i := 0; i < n; i++ {
		start := 2
		b.cfg.Attacks = append(b.cfg.Attacks, Attack{
			Type:          HorizontalScan,
			Attackers:     []netmodel.IPv4{b.extIP()},
			Victim:        b.prefix & 0xffff0000,
			Ports:         []uint16{23},
			Targets:       1000,
			StartInterval: start,
			EndInterval:   b.intervals - 1,
			Rate:          presetThreshold / 2,
			ResponseRate:  0.02,
			Cause:         "slow stealth scan (below HiFIND threshold)",
		})
	}
}

func (b *presetBuilder) addVScans(n int) {
	for i := 0; i < n; i++ {
		start, end := b.slot(3)
		ports := make([]uint16, 400)
		for p := range ports {
			ports[p] = uint16(1 + p + i*500)
		}
		b.cfg.Attacks = append(b.cfg.Attacks, Attack{
			Type:          VerticalScan,
			Attackers:     []netmodel.IPv4{b.extIP()},
			Victim:        b.litIP(),
			Ports:         ports,
			StartInterval: start,
			EndInterval:   end,
			Rate:          scanRate,
			ResponseRate:  0.03,
			Cause:         "vertical scan (service survey)",
		})
	}
}

// addRetryStorms injects benign misconfiguration events that mimic the
// stealthy flood shapes: a client endlessly retrying a dead multi-port
// service (raw vscan FP) or a dead three-host cluster (raw hscan FP).
// Both are unmasked by Phase 2's concentration test and, being dark
// destinations, never survive Phase 3 either.
func (b *presetBuilder) addRetryStorms(multiPort, cluster int) {
	for i := 0; i < multiPort; i++ {
		start := 2
		base := uint16(8000 + i*10)
		b.cfg.Attacks = append(b.cfg.Attacks, Attack{
			Type:          Misconfig,
			Attackers:     []netmodel.IPv4{b.extIP()},
			Victim:        b.darkIP(),
			Ports:         []uint16{base, base + 1, base + 81},
			StartInterval: start,
			EndInterval:   b.intervals - 1,
			Rate:          3 * stealthPerKey,
			ResponseRate:  0,
			Cause:         "retry storm against dead multi-port service (raw vscan FP)",
		})
	}
	for i := 0; i < cluster; i++ {
		start := 2
		b.cfg.Attacks = append(b.cfg.Attacks, Attack{
			Type:          Misconfig,
			Attackers:     []netmodel.IPv4{b.extIP()},
			Victim:        b.darkIP(),
			Ports:         []uint16{8080},
			Targets:       3,
			StartInterval: start,
			EndInterval:   b.intervals - 1,
			Rate:          3 * stealthPerKey,
			ResponseRate:  0,
			Cause:         "retry storm against dead cluster (raw hscan FP)",
		})
	}
}

func (b *presetBuilder) addCongestions(n int) {
	for i := 0; i < n; i++ {
		start, end := b.slot(1) // transient by construction
		b.cfg.Attacks = append(b.cfg.Attacks, Attack{
			Type:          Congestion,
			Victim:        b.litIP(),
			Ports:         []uint16{80},
			StartInterval: start,
			EndInterval:   end,
			Rate:          6 * presetThreshold,
			ResponseRate:  0.45, // congested but answering
			Cause:         "transient server congestion",
		})
	}
}

func (b *presetBuilder) addMisconfigs(n int) {
	for i := 0; i < n; i++ {
		start := 2
		end := b.intervals - 1
		b.cfg.Attacks = append(b.cfg.Attacks, Attack{
			Type:          Misconfig,
			Victim:        b.darkIP(), // never hosted a service
			Ports:         []uint16{80},
			StartInterval: start,
			EndInterval:   end,
			Rate:          4 * presetThreshold,
			ResponseRate:  0,
			Cause:         "stale DNS / misconfiguration",
		})
	}
}

func (b *presetBuilder) addFlashCrowd() {
	start, end := b.slot(2)
	b.cfg.Attacks = append(b.cfg.Attacks, Attack{
		Type:          FlashCrowd,
		Victim:        b.litIP(),
		Ports:         []uint16{80},
		StartInterval: start,
		EndInterval:   end,
		Rate:          12 * presetThreshold,
		ResponseRate:  0.95,
		Cause:         "flash crowd",
	})
}
