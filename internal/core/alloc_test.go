package core

import (
	"runtime"
	"testing"
	"time"

	"github.com/hifind/hifind/internal/burst"
	"github.com/hifind/hifind/internal/netmodel"
	"github.com/hifind/hifind/internal/revsketch"
)

// The update path's zero-allocation pin: plans and key powers are
// preallocated or stack-resident, so Observe and ObserveFlow must not
// allocate. The hotpath-alloc lint rule guards the source; this guards
// escape-analysis regressions the AST rule cannot see.

func allocRecorder(t *testing.T) *Recorder {
	t.Helper()
	r, err := NewRecorder(TestRecorderConfig(0xa110c))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestObserveAllocs(t *testing.T) {
	r := allocRecorder(t)
	var i uint32
	allocs := testing.AllocsPerRun(1000, func() {
		r.Observe(netmodel.Packet{
			SrcIP: netmodel.IPv4(0x08080000 | i), DstIP: 0x81690101,
			SrcPort: 40000, DstPort: uint16(i),
			Flags: netmodel.FlagSYN, Dir: netmodel.Inbound,
		})
		r.Observe(netmodel.Packet{
			SrcIP: 0x81690101, DstIP: netmodel.IPv4(0x08080000 | i),
			SrcPort: uint16(i), DstPort: 40000,
			Flags: netmodel.FlagSYN | netmodel.FlagACK, Dir: netmodel.Outbound,
		})
		i++
	})
	if allocs != 0 {
		t.Errorf("Observe allocates %v times per call, want 0", allocs)
	}
}

func TestObserveFlowAllocs(t *testing.T) {
	r := allocRecorder(t)
	var i uint32
	allocs := testing.AllocsPerRun(1000, func() {
		r.ObserveFlow(netmodel.FlowRecord{
			SrcIP: netmodel.IPv4(0x08080000 | i), DstIP: 0x81690101,
			SrcPort: 40000, DstPort: uint16(i),
			Dir: netmodel.Inbound, SYNs: 3,
		})
		r.ObserveFlow(netmodel.FlowRecord{
			SrcIP: 0x81690101, DstIP: netmodel.IPv4(0x08080000 | i),
			SrcPort: uint16(i), DstPort: 40000,
			Dir: netmodel.Outbound, SYNACKs: 2,
		})
		i++
	})
	if allocs != 0 {
		t.Errorf("ObserveFlow allocates %v times per call, want 0", allocs)
	}
}

// TestAddBinaryAllocs pins the merge path: adding serialized states
// validates and sums in place, so two contributors allocate nothing — at
// paper geometry, and with every optional structure (burst and
// reflection monitors) on.
func TestAddBinaryAllocs(t *testing.T) {
	full := TestRecorderConfig(0xa110c)
	full.BurstWindow = time.Minute / burst.Slots
	full.Reflection = true
	for name, cfg := range map[string]RecorderConfig{
		"paper": PaperRecorderConfig(0xa110c),
		"full":  full,
	} {
		t.Run(name, func(t *testing.T) {
			r, err := NewRecorder(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var payloads [2][]byte
			for i := range payloads {
				src, err := NewRecorder(cfg)
				if err != nil {
					t.Fatal(err)
				}
				feed(src, diffStream(int64(i), 500))
				payloads[i] = mustMarshal(t, src)
			}
			allocs := testing.AllocsPerRun(5, func() {
				if err := r.AddBinary(payloads[0], payloads[1]); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("AddBinary of two payloads allocates %v times per call, want 0", allocs)
			}
		})
	}
}

// TestEndIntervalBytes pins what a warm detector allocates to close a
// quiet interval. The forecasters read every lane's live counters before
// the reset, so no interval copies a counter table: a warm close must
// allocate less than one RS48 table (6 stages × 4 096 buckets × 4 B =
// 96 KiB at this geometry), a twentieth of what snapshotting all six
// lane tables would cost.
func TestEndIntervalBytes(t *testing.T) {
	d, err := NewDetector(TestRecorderConfig(0xa110c), DetectorConfig{Threshold: 60})
	if err != nil {
		t.Fatal(err)
	}
	quiet := func() {
		for i := uint32(0); i < 200; i++ {
			client := netmodel.IPv4(0x0a000000 | i*7919)
			server := netmodel.IPv4(0x81690000 | i%40)
			d.Observe(netmodel.Packet{SrcIP: client, DstIP: server, SrcPort: uint16(30000 + i), DstPort: 80,
				Flags: netmodel.FlagSYN, Dir: netmodel.Inbound})
			d.Observe(netmodel.Packet{SrcIP: server, DstIP: client, SrcPort: 80, DstPort: uint16(30000 + i),
				Flags: netmodel.FlagSYN | netmodel.FlagACK, Dir: netmodel.Outbound})
		}
		if _, err := d.EndInterval(); err != nil {
			t.Fatal(err)
		}
	}
	quiet() // seeds the forecasts
	quiet() // the first detecting close grows the search buffers
	const intervals = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < intervals; i++ {
		quiet()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / intervals
	mallocs := (after.Mallocs - before.Mallocs) / intervals
	t.Logf("warm quiet EndInterval: %d bytes in %d allocations per interval", bytes, mallocs)
	if table := uint64(d.Recorder().RSSipDport.MemoryBytes()); bytes >= table {
		t.Errorf("warm quiet EndInterval allocates %d bytes per interval, want under one RS48 table (%d)", bytes, table)
	}
}

// TestEndIntervalAllocs pins the detection path's memory under a
// spoofed flood aimed at the IDS (paper §3.5). Each reversible sketch
// keeps the buffers of its reverse search, so once they have grown a
// flood interval allocates exactly as often whether the search expands
// a handful of nodes or runs into its node cap. The control is a flood
// below the saturation point (same victim, same alert); at 20 000
// SYN/interval the RS({SIP,DIP}) search saturates, and at 50 000 the
// RS({SIP,Dport}) search does too. Alpha 1 forecasts each interval by
// the one before, so every flood interval after a quiet one is an
// onset. The onset's counted work is pinned too: the search nodes and
// leaves of each rate are what the reverse search has always expanded
// on this traffic, so a cheaper search kernel must walk the same
// traversal, and the work stays flat past saturation.
func TestEndIntervalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("a search that runs into its node cap takes minutes under the race detector")
	}
	const searchNodeCap = 4_000_000 // revsketch's default MaxNodes
	d, err := NewDetector(TestRecorderConfig(0xa110c), DetectorConfig{Threshold: 60, Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	victim := netmodel.MustParseIPv4("129.105.240.1")
	background := make([]netmodel.Packet, 0, 400)
	for i := uint32(0); i < 200; i++ {
		client := netmodel.IPv4(0x0a000000 | i*7919)
		server := netmodel.IPv4(0x81690000 | i%40)
		background = append(background,
			netmodel.Packet{SrcIP: client, DstIP: server, SrcPort: uint16(30000 + i), DstPort: 80,
				Flags: netmodel.FlagSYN, Dir: netmodel.Inbound},
			netmodel.Packet{SrcIP: server, DstIP: client, SrcPort: 80, DstPort: uint16(30000 + i),
				Flags: netmodel.FlagSYN | netmodel.FlagACK, Dir: netmodel.Outbound})
	}
	interval := func(flood int) IntervalResult {
		for _, p := range background {
			d.Observe(p)
		}
		state := uint32(0x9e3779b9)
		for i := 0; i < flood; i++ { // xorshift32: a fresh spoofed source per SYN
			state ^= state << 13
			state ^= state >> 17
			state ^= state << 5
			d.Observe(netmodel.Packet{SrcIP: netmodel.IPv4(state), DstIP: victim,
				SrcPort: uint16(state >> 16), DstPort: 80,
				Flags: netmodel.FlagSYN, Dir: netmodel.Inbound})
		}
		res, err := d.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	interval(0) // forecast warm-up
	// AllocsPerRun's own warm-up call grows the search buffers, so each
	// count is the warm detector's.
	onset := func(flood int) (float64, DiagStats) {
		var diag DiagStats
		allocs := testing.AllocsPerRun(1, func() {
			interval(0)
			diag = interval(flood).Diag
		})
		return allocs, diag
	}
	// Search work of each onset, summed over the interval's searches.
	type work struct{ nodes, leaves int }
	pinned := map[int]work{
		2_000:  {11, 2},
		20_000: {4_006_998, 4_002_288},
		50_000: {8_000_009, 7_998_957},
	}
	checkWork := func(flood int, diag DiagStats) {
		t.Helper()
		if got := (work{diag.InferenceNodes, diag.InferenceLeaves}); got != pinned[flood] {
			t.Errorf("flood %d: search expanded %d nodes and %d leaves, want %d and %d",
				flood, got.nodes, got.leaves, pinned[flood].nodes, pinned[flood].leaves)
		}
	}
	want, control := onset(2_000)
	if control.InferenceBudgetHits != 0 || control.FloodCandidates != 1 {
		t.Fatalf("control flood: %d budget hits, %d flood keys; want 0 and 1",
			control.InferenceBudgetHits, control.FloodCandidates)
	}
	checkWork(2_000, control)
	rec := d.Recorder()
	for _, tc := range []struct{ flood, saturated int }{{50_000, 2}, {20_000, 1}} {
		allocs, diag := onset(tc.flood)
		if allocs != want {
			t.Errorf("flood %d: EndInterval allocates %v times, control %v", tc.flood, allocs, want)
		}
		checkWork(tc.flood, diag)
		if diag.InferenceBudgetHits != tc.saturated {
			t.Errorf("flood %d: %d searches hit their budget, want %d", tc.flood, diag.InferenceBudgetHits, tc.saturated)
		}
		if diag.FloodCandidates != 1 {
			t.Errorf("flood %d: %d flood keys, want the victim alone", tc.flood, diag.FloodCandidates)
		}
		for name, rs := range map[string]*revsketch.Sketch{
			"RS({DIP,Dport})": rec.RSDipDport, "RS({SIP,DIP})": rec.RSSipDip, "RS({SIP,Dport})": rec.RSSipDport,
		} {
			if n := rs.LastInference().Nodes; n > searchNodeCap {
				t.Errorf("flood %d: %s search expanded %d nodes, cap %d", tc.flood, name, n, searchNodeCap)
			}
		}
	}
}
