// Package flowtable is the per-flow memory model of the paper's Table 9:
// exact per-key hash tables for the three HiFIND keys, holding an entry
// for every key the recorder's sketches are updated for, so the state a
// per-flow approach keeps can be measured against HiFIND's fixed
// sketches. It is *not* DoS resilient: a spoofed flood inserts one entry
// per forged source. It counts entries; it runs no detection.
package flowtable

import "github.com/hifind/hifind/internal/netmodel"

// Table holds the {SIP,Dport}, {DIP,Dport} and {SIP,DIP} keys seen so
// far. Not safe for concurrent use.
type Table struct {
	sipDport map[uint64]struct{}
	dipDport map[uint64]struct{}
	sipDip   map[uint64]struct{}
}

// New builds an empty table.
func New() *Table {
	return &Table{
		sipDport: make(map[uint64]struct{}),
		dipDport: make(map[uint64]struct{}),
		sipDip:   make(map[uint64]struct{}),
	}
}

// Observe feeds one packet: an inbound SYN or an outbound SYN/ACK, the
// two classes HiFIND's recorder counts (+1 and −1), inserts the keys of
// its connection as seen from the client side.
func (t *Table) Observe(pkt netmodel.Packet) {
	switch {
	case pkt.Dir == netmodel.Inbound && pkt.Flags.IsSYN():
		t.add(pkt.SrcIP, pkt.DstIP, pkt.DstPort)
	case pkt.Dir == netmodel.Outbound && pkt.Flags.IsSYNACK():
		t.add(pkt.DstIP, pkt.SrcIP, pkt.SrcPort)
	}
}

func (t *Table) add(sip, dip netmodel.IPv4, dport uint16) {
	t.sipDport[netmodel.PackSIPDport(sip, dport)] = struct{}{}
	t.dipDport[netmodel.PackDIPDport(dip, dport)] = struct{}{}
	t.sipDip[netmodel.PackSIPDIP(sip, dip)] = struct{}{}
}

// Entries returns the live key count across all three tables — the state
// a spoofed flood inflates (Table 9's 10s-of-GB column comes from exactly
// this growth at line rate).
func (t *Table) Entries() int {
	return len(t.sipDport) + len(t.dipDport) + len(t.sipDip)
}

// MemoryBytes estimates table memory at 48 bytes per entry (key, counter,
// forecast, map overhead) — the accounting used for Table 9.
func (t *Table) MemoryBytes() int { return 48 * t.Entries() }
