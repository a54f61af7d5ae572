package flowtable

import (
	"math/rand"
	"testing"

	"github.com/hifind/hifind/internal/netmodel"
)

func synIn(src, dst netmodel.IPv4, dport uint16) netmodel.Packet {
	return netmodel.Packet{SrcIP: src, DstIP: dst, SrcPort: 40000, DstPort: dport,
		Flags: netmodel.FlagSYN, Dir: netmodel.Inbound}
}

func TestMemoryGrowsWithSpoofedFlood(t *testing.T) {
	// Table 9's point: exact tables need an entry per spoofed source.
	d := New()
	victim := netmodel.MustParseIPv4("129.105.4.4")
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 30000; i++ {
		d.Observe(synIn(netmodel.IPv4(rng.Uint32()), victim, 80))
	}
	if d.Entries() < 30000 {
		t.Errorf("Entries = %d, want ≥30000 (one per spoofed source)", d.Entries())
	}
	if d.MemoryBytes() < 30000*40 {
		t.Errorf("MemoryBytes = %d suspiciously small", d.MemoryBytes())
	}
}
