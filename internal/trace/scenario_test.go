package trace

import (
	"bytes"
	"testing"
	"time"

	"github.com/hifind/hifind/internal/burst"
	"github.com/hifind/hifind/internal/netmodel"
	"github.com/hifind/hifind/internal/pcap"
)

// requireNoServiceAt guards a scenario test's packet filter: if the
// seeded server pool happened to host a service on the attack's victim
// socket, background flows would pollute the attack-only filters below.
// The preset seeds used here are chosen so this never trips.
func requireNoServiceAt(t *testing.T, g *Generator, addr netmodel.IPv4, port uint16) {
	t.Helper()
	for _, s := range g.Services() {
		if s.Addr == addr && s.Port == port {
			t.Fatalf("seed collision: background service on victim socket %s:%d", addr, port)
		}
	}
}

// TestBurstPulseWindows checks the burst preset's core property: every
// pulse SYN lands inside its attack's [BurstOffset, BurstOffset+BurstWidth)
// window of the interval, the window fits inside one detector slot, and
// inactive intervals carry no pulse traffic at all.
func TestBurstPulseWindows(t *testing.T) {
	cfg := BurstPulseConfig(7, 10)
	g := mustGen(t, cfg)
	window := cfg.Interval / burst.Slots
	for _, a := range cfg.Attacks {
		if a.Type != BurstPulse {
			continue
		}
		requireNoServiceAt(t, g, a.Victim, a.Ports[0])
		if a.BurstWidth > window {
			t.Errorf("victim %s: burst width %v exceeds detector slot %v", a.Victim, a.BurstWidth, window)
		}
		// The whole window must sit inside a single sub-interval slot,
		// otherwise the pulse smears over two slots and halves its peak.
		if a.BurstOffset/window != (a.BurstOffset+a.BurstWidth-1)/window {
			t.Errorf("victim %s: burst window [%v,%v) straddles a slot boundary",
				a.Victim, a.BurstOffset, a.BurstOffset+a.BurstWidth)
		}
	}
	for i := 0; i < cfg.Intervals; i++ {
		pkts, err := g.GenerateInterval(i)
		if err != nil {
			t.Fatal(err)
		}
		start := cfg.Start.Add(time.Duration(i) * cfg.Interval)
		for _, a := range cfg.Attacks {
			if a.Type != BurstPulse {
				continue
			}
			count := 0
			lo := start.Add(a.BurstOffset)
			hi := lo.Add(a.BurstWidth)
			for _, p := range pkts {
				if p.Dir != netmodel.Inbound || !p.Flags.IsSYN() ||
					p.DstIP != a.Victim || p.DstPort != a.Ports[0] {
					continue
				}
				count++
				if p.Timestamp.Before(lo) || !p.Timestamp.Before(hi) {
					t.Fatalf("interval %d victim %s: pulse SYN at %v outside window [%v,%v)",
						i, a.Victim, p.Timestamp, lo, hi)
				}
			}
			switch {
			case a.ActiveIn(i) && count != a.Rate:
				t.Errorf("interval %d victim %s: got %d pulse SYNs, want %d", i, a.Victim, count, a.Rate)
			case !a.ActiveIn(i) && count != 0:
				t.Errorf("interval %d victim %s: %d pulse SYNs outside active range", i, a.Victim, count)
			}
		}
	}
}

// TestStealthScanCoverage checks the stealth preset: each persistent scan
// emits exactly Rate probes from its attacker in every interval of its
// [StartInterval, EndInterval] span and none outside it — the
// interval-coverage contract the persistence detector's streak logic
// depends on.
func TestStealthScanCoverage(t *testing.T) {
	cfg := StealthScanConfig(11, 9)
	g := mustGen(t, cfg)
	for i := 0; i < cfg.Intervals; i++ {
		pkts, err := g.GenerateInterval(i)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range cfg.Attacks {
			if a.Type != StealthScan {
				continue
			}
			count := 0
			targets := make(map[netmodel.IPv4]bool)
			for _, p := range pkts {
				if p.Dir != netmodel.Inbound || !p.Flags.IsSYN() ||
					p.SrcIP != a.Attackers[0] || p.DstPort != a.Ports[0] {
					continue
				}
				count++
				targets[p.DstIP] = true
			}
			want := 0
			if a.ActiveIn(i) {
				want = a.Rate
			}
			if count != want {
				t.Errorf("interval %d attacker %s: got %d probes, want %d",
					i, a.Attackers[0], count, want)
			}
			// The sweep advances Rate fresh targets per interval until it
			// wraps, so within one interval every probe hits a distinct host.
			if a.ActiveIn(i) && len(targets) != a.Rate {
				t.Errorf("interval %d attacker %s: %d distinct targets, want %d",
					i, a.Attackers[0], len(targets), a.Rate)
			}
		}
	}
}

// TestReflectionCardinalities checks the reflection preset: each active
// interval carries exactly Rate unsolicited SYN/ACKs per attack, sourced
// from exactly Reflectors distinct addresses spanning Reflectors distinct
// /8 networks — the source-diversity evidence the backscatter validator
// keys on.
func TestReflectionCardinalities(t *testing.T) {
	cfg := ReflectionConfig(13, 8)
	g := mustGen(t, cfg)
	for i := 0; i < cfg.Intervals; i++ {
		pkts, err := g.GenerateInterval(i)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range cfg.Attacks {
			count := 0
			srcs := make(map[netmodel.IPv4]bool)
			slash8 := make(map[uint8]bool)
			for _, p := range pkts {
				if p.Dir != netmodel.Inbound || !p.Flags.IsSYNACK() ||
					p.DstIP != a.Victim || p.SrcPort != a.Ports[0] {
					continue
				}
				count++
				srcs[p.SrcIP] = true
				slash8[uint8(p.SrcIP>>24)] = true
			}
			want, wantSrcs := 0, 0
			if a.ActiveIn(i) {
				want, wantSrcs = a.Rate, a.Reflectors
			}
			if count != want {
				t.Errorf("interval %d victim %s: got %d reflected SYN/ACKs, want %d",
					i, a.Victim, count, want)
			}
			if len(srcs) != wantSrcs || len(slash8) != wantSrcs {
				t.Errorf("interval %d victim %s: %d sources over %d /8s, want %d over %d",
					i, a.Victim, len(srcs), len(slash8), wantSrcs, wantSrcs)
			}
			for src := range srcs {
				found := false
				for j := 0; j < a.Reflectors; j++ {
					if src == ReflectorIP(j) {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("interval %d victim %s: source %s not in the reflector pool",
						i, a.Victim, src)
				}
			}
		}
	}
}

// TestScenarioDeterminism checks that each scenario preset is a pure
// function of its seed: two generators built from the same config emit
// byte-identical packet streams, and a different seed diverges. The golden
// traces and the sharded-identity matrix all stand on this.
func TestScenarioDeterminism(t *testing.T) {
	presets := map[string]func(seed int64) Config{
		"burst":      func(seed int64) Config { return BurstPulseConfig(seed, 8) },
		"stealth":    func(seed int64) Config { return StealthScanConfig(seed, 8) },
		"reflection": func(seed int64) Config { return ReflectionConfig(seed, 8) },
	}
	serialize := func(cfg Config) []byte {
		var buf bytes.Buffer
		g := mustGen(t, cfg)
		w := pcap.NewWriter(&buf)
		if err := g.Stream(w.WritePacket); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for name, preset := range presets {
		t.Run(name, func(t *testing.T) {
			a, b := serialize(preset(42)), serialize(preset(42))
			if !bytes.Equal(a, b) {
				t.Fatal("same seed produced different trace bytes")
			}
			if bytes.Equal(a, serialize(preset(43))) {
				t.Fatal("different seeds produced identical trace bytes")
			}
		})
	}
}
