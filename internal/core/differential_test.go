package core

// Differential harness for the recorder's update path: every test drives
// Observe/ObserveFlow and the reference below with identical input and
// requires the complete serialized recorder state — every sketch
// counter, every Bloom bit, every burst-slot and reflection counter,
// every total — to match byte for byte. The
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

// refObserve is the reference's Observe: one packet, classified by its
// flag bits and direction into the four handshake classes.
func refObserve(r *Recorder, pkt netmodel.Packet) {
	r.packets++
	if pkt.Flags&netmodel.FlagSYN == 0 {
		return
	}
	switch ack := pkt.Flags&netmodel.FlagACK != 0; {
	case pkt.Dir == netmodel.Inbound && !ack:
		refUpdate(r, pkt.SrcIP, pkt.DstIP, pkt.DstPort, +1, pkt.Timestamp)
	case pkt.Dir == netmodel.Outbound && ack:
		// The connection's client is the packet destination.
		refUpdate(r, pkt.DstIP, pkt.SrcIP, pkt.SrcPort, -1, pkt.Timestamp)
		r.Services.Add(netmodel.PackDIPDport(pkt.SrcIP, pkt.SrcPort))
		r.memoryAccesses += 7
	case pkt.Dir == netmodel.Outbound && !ack:
		refReflect(r, netmodel.PackDIPDport(pkt.SrcIP, pkt.DstPort), -1)
	case pkt.Dir == netmodel.Inbound && ack:
		refReflect(r, netmodel.PackDIPDport(pkt.DstIP, pkt.SrcPort), +1)
	}
}

// refObserveFlow is the reference's ObserveFlow: a record replays as
// that many single packets' worth of ±1 updates, all in the burst slot
// of its start time, with one Bloom insert per record. Only the SYNs of
// an inbound record and the SYN/ACKs of an outbound one count as
// packets.
func refObserveFlow(r *Recorder, rec netmodel.FlowRecord) {
	switch rec.Dir {
	case netmodel.Inbound:
		for i := 0; i < rec.SYNs; i++ {
			refUpdate(r, rec.SrcIP, rec.DstIP, rec.DstPort, +1, rec.Start)
			r.packets++
		}
		for i := 0; i < rec.SYNACKs; i++ {
			refReflect(r, netmodel.PackDIPDport(rec.DstIP, rec.SrcPort), +1)
		}
	case netmodel.Outbound:
		for i := 0; i < rec.SYNACKs; i++ {
			refUpdate(r, rec.DstIP, rec.SrcIP, rec.SrcPort, -1, rec.Start)
			r.packets++
		}
		if rec.SYNACKs > 0 {
			r.Services.Add(netmodel.PackDIPDport(rec.SrcIP, rec.SrcPort))
			r.memoryAccesses += 7
		}
		for i := 0; i < rec.SYNs; i++ {
			refReflect(r, netmodel.PackDIPDport(rec.SrcIP, rec.DstPort), -1)
		}
	}
}

// refUpdate applies one SYN (v=+1) or SYN/ACK (v=−1) of connection
// (sip,dip,dport) seen at ts: each structure mangles and hashes its key
// independently through its own Update, and the burst monitor, when on,
// takes v under {dip,dport} in ts's slot. The tally is the paper's fixed
// per-packet budget (§5.5.2) — Stages counter writes per reversible
// sketch at its own geometry, per verifier, per 2D sketch and per burst
// slot, and the OS sketch's Stages on SYNs only.
func refUpdate(r *Recorder, sip, dip netmodel.IPv4, dport uint16, v int32, ts time.Time) {
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
	if r.Burst != nil {
		r.Burst.Update(r.Burst.Slot(ts), kDipDport, v)
		acc += r.cfg.RS48.Stages
	}
	r.memoryAccesses += int64(acc)
}

// refReflect applies one outbound SYN (v=−1) or inbound SYN/ACK (v=+1)
// to the reflection monitor and its verifier, when on.
func refReflect(r *Recorder, key uint64, v int32) {
	if r.Reflect == nil {
		return
	}
	r.Reflect.Update(key, v)
	r.VerReflect.Update(key, v)
	r.memoryAccesses += int64(r.cfg.RS48.Stages + r.cfg.Verifier.Stages)
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
// records: all four handshake classes (inbound and outbound SYNs and
// SYN/ACKs), ignorable noise, and flow records of either direction
// carrying a spread of SYN and SYN/ACK counts — each 0, 1 or large, so
// some records carry both — including the corners the weighted path
// collapses. Timestamps spread over one minute, across every burst
// slot.
func diffStream(seed int64, n int) []diffEvent {
	rng := rand.New(rand.NewSource(seed))
	flowCounts := []int{0, 1, 2, 3, 7, 64, 1000}
	count := func() int { return flowCounts[rng.Intn(len(flowCounts))] }
	base := time.Date(2005, 5, 10, 0, 0, 0, 0, time.UTC)
	events := make([]diffEvent, 0, n)
	for i := 0; i < n; i++ {
		sip := netmodel.IPv4(rng.Uint32())
		dip := netmodel.IPv4(0x81690000 | rng.Uint32()&0xffff)
		sport := uint16(1024 + rng.Intn(60000))
		dport := uint16(rng.Intn(1 << 16))
		ts := base.Add(time.Duration(rng.Int63n(int64(time.Minute))))
		// in is an external client's packet to an internal server; out is
		// the server's answer.
		in := netmodel.Packet{Timestamp: ts, SrcIP: sip, DstIP: dip, SrcPort: sport, DstPort: dport, Dir: netmodel.Inbound}
		out := netmodel.Packet{Timestamp: ts, SrcIP: dip, DstIP: sip, SrcPort: dport, DstPort: sport, Dir: netmodel.Outbound}
		switch rng.Intn(7) {
		case 0: // inbound SYN
			in.Flags = netmodel.FlagSYN
			events = append(events, diffEvent{pkt: in})
		case 1: // outbound SYN/ACK
			out.Flags = netmodel.FlagSYN | netmodel.FlagACK
			events = append(events, diffEvent{pkt: out})
		case 2: // noise the recorder must ignore identically
			in.Flags = netmodel.FlagACK
			events = append(events, diffEvent{pkt: in})
		case 3: // outbound SYN: an internal client opening a connection
			out.Flags = netmodel.FlagSYN
			events = append(events, diffEvent{pkt: out})
		case 4: // inbound SYN/ACK: an answer entering the edge
			in.Flags = netmodel.FlagSYN | netmodel.FlagACK
			events = append(events, diffEvent{pkt: in})
		case 5: // inbound flow record (weighted replay)
			events = append(events, diffEvent{isFlow: true, flow: netmodel.FlowRecord{
				Start: ts, End: ts, SrcIP: sip, DstIP: dip, SrcPort: sport, DstPort: dport,
				Dir: netmodel.Inbound, SYNs: count(), SYNACKs: count(),
			}})
		case 6: // outbound flow record (weighted replay)
			events = append(events, diffEvent{isFlow: true, flow: netmodel.FlowRecord{
				Start: ts, End: ts, SrcIP: dip, DstIP: sip, SrcPort: dport, DstPort: sport,
				Dir: netmodel.Outbound, SYNs: count(), SYNACKs: count(),
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

// diffConfigs are the recorder configurations the differential suite
// runs on: the compact set; the RS64 sketch at a stage count of its own,
// so a tally charging it at the RS48 geometry shows; and the burst and
// reflection monitors on.
func diffConfigs(seed uint64) map[string]RecorderConfig {
	compact := TestRecorderConfig(seed)
	rs64 := compact
	rs64.RS64.Stages = 5
	monitors := compact
	monitors.BurstWindow = 7500 * time.Millisecond
	monitors.Reflection = true
	return map[string]RecorderConfig{"compact": compact, "rs64-stages": rs64, "monitors": monitors}
}

// TestDifferentialSequential drives both sides with identical mixed
// packet/flow streams across several seeds and every differential
// configuration and requires byte-identical state.
func TestDifferentialSequential(t *testing.T) {
	for name, cfg := range diffConfigs(0xd1ff) {
		for _, seed := range []int64{1, 2, 3, 42} {
			events := diffStream(seed, 4000)
			got, ref := diffRecorders(t, cfg)
			feed(got, events)
			feedRef(ref, events)
			requireIdentical(t, got, ref, name)
		}
	}
}

// TestDifferentialCombine splits one stream across three "routers" per
// side, merges each side's routers with COMBINE, and requires the
// aggregates to be byte-identical — the multi-router path, with the
// burst and reflection monitors on.
func TestDifferentialCombine(t *testing.T) {
	const routers = 3
	events := diffStream(7, 6000)
	var gotR, refR []*Recorder
	for i := 0; i < routers; i++ {
		g, r := diffRecorders(t, diffConfigs(0xc0fe)["monitors"])
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
