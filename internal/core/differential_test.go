package core

// Differential harness for the recorder's update path: every test drives
// Observe/ObserveFlow and the reference below with identical input and
// requires the complete serialized recorder state — every sketch
// counter, every Bloom bit, every total — to match byte for byte. The
// reference is written independently of the product path: its own
// packet and flow-record classification, one Update call per structure
// (each re-hashing its key), one ±1 per synthetic SYN of a flow record,
// and its own memory-access tally. Agreement proves the product path's
// shared hash powers, bucket plans and weighted updates change nothing
// but speed.

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"github.com/hifind/hifind/internal/netmodel"
	"github.com/hifind/hifind/internal/trace"
)

// refObserve is the reference's Observe. The burst and reflection
// monitors are out of its scope: they apply inline in Observe, outside
// the update path under test, and no differential configuration
// enables them.
func refObserve(r *Recorder, pkt netmodel.Packet) {
	r.packets++
	if pkt.Flags&netmodel.FlagSYN == 0 {
		return
	}
	switch ack := pkt.Flags&netmodel.FlagACK != 0; {
	case pkt.Dir == netmodel.Inbound && !ack:
		refUpdate(r, pkt.SrcIP, pkt.DstIP, pkt.DstPort, +1)
	case pkt.Dir == netmodel.Outbound && ack:
		// The connection's client is the packet destination.
		refUpdate(r, pkt.DstIP, pkt.SrcIP, pkt.SrcPort, -1)
		r.Services.Add(netmodel.PackDIPDport(pkt.SrcIP, pkt.SrcPort))
		r.memoryAccesses += 7
	}
}

// refObserveFlow is the reference's ObserveFlow: a record replays as
// that many single packets' worth of ±1 updates.
func refObserveFlow(r *Recorder, rec netmodel.FlowRecord) {
	if rec.Dir == netmodel.Inbound {
		for i := 0; i < rec.SYNs; i++ {
			refUpdate(r, rec.SrcIP, rec.DstIP, rec.DstPort, +1)
			r.packets++
		}
	}
	if rec.Dir == netmodel.Outbound && rec.SYNACKs > 0 {
		for i := 0; i < rec.SYNACKs; i++ {
			refUpdate(r, rec.DstIP, rec.SrcIP, rec.SrcPort, -1)
			r.packets++
		}
		r.Services.Add(netmodel.PackDIPDport(rec.SrcIP, rec.SrcPort))
		r.memoryAccesses += 7
	}
}

// refUpdate applies one SYN (v=+1) or SYN/ACK (v=−1) of connection
// (sip,dip,dport): each structure mangles and hashes its key
// independently through its own Update. The tally is the paper's fixed
// per-packet budget (§5.5.2) — Stages counter writes per reversible,
// verifier and 2D sketch, and the OS sketch's Stages on SYNs only.
func refUpdate(r *Recorder, sip, dip netmodel.IPv4, dport uint16, v int32) {
	kSipDport := netmodel.PackSIPDport(sip, dport)
	kDipDport := netmodel.PackDIPDport(dip, dport)
	kSipDip := netmodel.PackSIPDIP(sip, dip)

	r.RSSipDport.Update(kSipDport, v)
	r.RSDipDport.Update(kDipDport, v)
	r.RSSipDip.Update(kSipDip, v)
	r.VerSipDport.Update(kSipDport, v)
	r.VerDipDport.Update(kDipDport, v)
	r.VerSipDip.Update(kSipDip, v)
	r.TwoDSipDportXDip.Update(kSipDport, uint64(dip), v)
	r.TwoDSipDipXDport.Update(kSipDip, uint64(dport), v)
	acc := 2*r.cfg.RS48.Stages + r.cfg.RS64.Stages + 3*r.cfg.Verifier.Stages + 2*r.cfg.TwoD.Stages
	if v > 0 {
		r.OSDipDport.Update(kDipDport, 1)
		acc += r.cfg.Original.Stages
	}
	r.memoryAccesses += int64(acc)
}

// diffRecorders builds two recorders on the same configuration: got is
// fed through Observe/ObserveFlow, ref through the reference.
func diffRecorders(t *testing.T, cfg RecorderConfig) (got, ref *Recorder) {
	t.Helper()
	var err error
	if got, err = NewRecorder(cfg); err != nil {
		t.Fatal(err)
	}
	if ref, err = NewRecorder(cfg); err != nil {
		t.Fatal(err)
	}
	return got, ref
}

// diffEvent is one observation fed identically to both sides.
type diffEvent struct {
	pkt    netmodel.Packet
	flow   netmodel.FlowRecord
	isFlow bool
}

// diffStream generates a deterministic mixed stream of packets and flow
// records: inbound SYNs, outbound SYN/ACKs, ignorable noise, and flow
// records with a spread of SYN/SYNACK counts including the corners the
// weighted path collapses (0 and 1 and large).
func diffStream(seed int64, n int) []diffEvent {
	rng := rand.New(rand.NewSource(seed))
	flowCounts := []int{0, 1, 2, 3, 7, 64, 1000}
	events := make([]diffEvent, 0, n)
	for i := 0; i < n; i++ {
		sip := netmodel.IPv4(rng.Uint32())
		dip := netmodel.IPv4(0x81690000 | rng.Uint32()&0xffff)
		sport := uint16(1024 + rng.Intn(60000))
		dport := uint16(rng.Intn(1 << 16))
		switch rng.Intn(5) {
		case 0: // inbound SYN
			events = append(events, diffEvent{pkt: netmodel.Packet{
				SrcIP: sip, DstIP: dip, SrcPort: sport, DstPort: dport,
				Flags: netmodel.FlagSYN, Dir: netmodel.Inbound,
			}})
		case 1: // outbound SYN/ACK
			events = append(events, diffEvent{pkt: netmodel.Packet{
				SrcIP: dip, DstIP: sip, SrcPort: dport, DstPort: sport,
				Flags: netmodel.FlagSYN | netmodel.FlagACK, Dir: netmodel.Outbound,
			}})
		case 2: // noise the recorder must ignore identically
			events = append(events, diffEvent{pkt: netmodel.Packet{
				SrcIP: sip, DstIP: dip, SrcPort: sport, DstPort: dport,
				Flags: netmodel.FlagACK, Dir: netmodel.Inbound,
			}})
		case 3: // inbound flow record (weighted SYN replay)
			events = append(events, diffEvent{isFlow: true, flow: netmodel.FlowRecord{
				SrcIP: sip, DstIP: dip, SrcPort: sport, DstPort: dport,
				Dir: netmodel.Inbound, SYNs: flowCounts[rng.Intn(len(flowCounts))],
			}})
		case 4: // outbound flow record (weighted SYN/ACK replay)
			events = append(events, diffEvent{isFlow: true, flow: netmodel.FlowRecord{
				SrcIP: dip, DstIP: sip, SrcPort: dport, DstPort: sport,
				Dir: netmodel.Outbound, SYNACKs: flowCounts[rng.Intn(len(flowCounts))],
			}})
		}
	}
	return events
}

func feed(r *Recorder, events []diffEvent) {
	for _, e := range events {
		if e.isFlow {
			r.ObserveFlow(e.flow)
		} else {
			r.Observe(e.pkt)
		}
	}
}

func feedRef(r *Recorder, events []diffEvent) {
	for _, e := range events {
		if e.isFlow {
			refObserveFlow(r, e.flow)
		} else {
			refObserve(r, e.pkt)
		}
	}
}

// requireIdentical compares the full serialized state plus the counters
// MarshalBinary does not carry.
func requireIdentical(t *testing.T, got, ref *Recorder, label string) {
	t.Helper()
	gb, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := ref.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb, rb) {
		t.Fatalf("%s: recorder and reference serialized state diverged (%d vs %d bytes)",
			label, len(gb), len(rb))
	}
	if got.Packets() != ref.Packets() {
		t.Fatalf("%s: packets %d vs %d", label, got.Packets(), ref.Packets())
	}
	if got.MemoryAccesses() != ref.MemoryAccesses() {
		t.Fatalf("%s: memory accesses %d vs %d", label, got.MemoryAccesses(), ref.MemoryAccesses())
	}
}

// TestDifferentialSequential drives both sides with identical mixed
// packet/flow streams across several seeds and requires byte-identical
// state.
func TestDifferentialSequential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 42} {
		events := diffStream(seed, 4000)
		got, ref := diffRecorders(t, TestRecorderConfig(0xd1ff))
		feed(got, events)
		feedRef(ref, events)
		requireIdentical(t, got, ref, "sequential")
	}
}

// TestDifferentialCombine splits one stream across three "routers" per
// side, merges each side's routers with COMBINE, and requires the
// aggregates to be byte-identical — the multi-router path.
func TestDifferentialCombine(t *testing.T) {
	const routers = 3
	events := diffStream(7, 6000)
	var gotR, refR []*Recorder
	for i := 0; i < routers; i++ {
		g, r := diffRecorders(t, TestRecorderConfig(0xc0fe))
		gotR, refR = append(gotR, g), append(refR, r)
	}
	shares := make([][]diffEvent, routers)
	for i, e := range events {
		shares[i%routers] = append(shares[i%routers], e)
	}
	for r, share := range shares {
		feed(gotR[r], share)
		feedRef(refR[r], share)
	}
	addStates(t, gotR[0], gotR[1:]...)
	addStates(t, refR[0], refR[1:]...)
	requireIdentical(t, gotR[0], refR[0], "combine")
}

// TestDifferentialDetectorAlerts runs the full detector (all three
// phases) over a multi-attack trace, once recording through Observe and
// once through the reference, and requires identical alert output in
// every interval.
func TestDifferentialDetectorAlerts(t *testing.T) {
	cfg := trace.Config{
		Seed:            1212,
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
		},
	}
	mkDet := func() *Detector {
		d, err := NewDetector(TestRecorderConfig(0xa1e7), DetectorConfig{Threshold: 60})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	g, err := trace.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, ref := mkDet(), mkDet()
	var gotRes, refRes []IntervalResult
	for i := 0; i < cfg.Intervals; i++ {
		pkts, err := g.GenerateInterval(i)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkts {
			got.Observe(p)
			refObserve(ref.Recorder(), p)
		}
		gr, err := got.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		rr, err := ref.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		gotRes, refRes = append(gotRes, gr), append(refRes, rr)
	}
	requireSameAlerts(t, refRes, gotRes, "reference vs Observe")
}

// TestDifferentialMarshalRoundTripKeepsEngineWorking ensures a recorder
// that added serialized state keeps producing updates identical to the
// reference's.
func TestDifferentialMarshalRoundTripKeepsEngineWorking(t *testing.T) {
	got, ref := diffRecorders(t, TestRecorderConfig(0xbeef))
	pre := diffStream(11, 1000)
	feed(got, pre)
	feedRef(ref, pre)
	blob, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := NewRecorder(TestRecorderConfig(0xbeef))
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.AddBinary(blob); err != nil {
		t.Fatal(err)
	}
	restored.memoryAccesses = ref.MemoryAccesses()
	post := diffStream(12, 1000)
	feed(restored, post)
	feedRef(ref, post)
	requireIdentical(t, restored, ref, "post-restore")
}
