package hifind_test

import (
	"net/netip"
	"testing"
	"time"

	hifind "github.com/hifind/hifind"
	"github.com/hifind/hifind/internal/netmodel"
	"github.com/hifind/hifind/internal/trace"
)

// equivTrace is the labelled scenario the deployment-equivalence tests
// replay: background traffic plus a spoofed flood and a horizontal
// scan, so every detection phase (including the 2D classification and
// the Phase-3 active-service filter) runs over the merged state.
func equivTrace(t *testing.T) [][]netmodel.Packet {
	t.Helper()
	cfg := trace.Config{
		Seed:            11,
		Start:           time.Date(2005, 5, 10, 0, 0, 0, 0, time.UTC),
		Interval:        time.Minute,
		Intervals:       5,
		InternalPrefix:  0x81690000, // 129.105.0.0
		Servers:         20,
		BackgroundFlows: 400,
		FailRate:        0.04,
	}
	cfg.Attacks = []trace.Attack{
		{
			Type: trace.SYNFlood, Spoofed: true, Victim: 0x8169c801, /* 129.105.200.1 */
			Ports: []uint16{80}, StartInterval: 1, EndInterval: 4, Rate: 400,
			ResponseRate: 0.1, Cause: "flood",
		},
		{
			Type:      trace.HorizontalScan,
			Attackers: []netmodel.IPv4{0x14000005}, /* 20.0.0.5 */
			Victim:    0x81690100, Targets: 200,
			Ports: []uint16{22}, StartInterval: 2, EndInterval: 4, Rate: 300,
			Cause: "hscan",
		},
	}
	return intervalPackets(t, cfg)
}

// intervalPackets generates cfg's trace as one packet slice per interval.
func intervalPackets(t *testing.T, cfg trace.Config) [][]netmodel.Packet {
	t.Helper()
	g, err := trace.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	intervals := make([][]netmodel.Packet, cfg.Intervals)
	for i := range intervals {
		pkts, err := g.GenerateInterval(i)
		if err != nil {
			t.Fatal(err)
		}
		intervals[i] = pkts
	}
	return intervals
}

// toPublic converts an internal trace packet to the public API shape.
func toPublic(p netmodel.Packet) hifind.Packet {
	return hifind.Packet{
		Timestamp: p.Timestamp,
		SrcIP:     netip.AddrFrom4(p.SrcIP.Octets()),
		DstIP:     netip.AddrFrom4(p.DstIP.Octets()),
		SrcPort:   p.SrcPort,
		DstPort:   p.DstPort,
		SYN:       p.Flags&netmodel.FlagSYN != 0,
		ACK:       p.Flags&netmodel.FlagACK != 0,
		FIN:       p.Flags&netmodel.FlagFIN != 0,
		RST:       p.Flags&netmodel.FlagRST != 0,
		Dir:       hifind.Direction(p.Dir),
	}
}

// stripTimes zeroes the wall-clock field so results compare structurally.
func stripTimes(r hifind.Result) hifind.Result {
	r.DetectionTime = 0
	return r
}
