package core

import (
	"encoding/binary"
	"fmt"
	"time"

	"github.com/hifind/hifind/internal/bloom"
	"github.com/hifind/hifind/internal/burst"
	"github.com/hifind/hifind/internal/netmodel"
	"github.com/hifind/hifind/internal/revsketch"
	"github.com/hifind/hifind/internal/sketch"
	"github.com/hifind/hifind/internal/sketch2d"
)

// RecorderConfig sizes the sketch set. The zero value is replaced by the
// paper's §5.1 configuration (PaperRecorderConfig).
type RecorderConfig struct {
	// Seed derives every hash function; recorders sharing a seed are
	// combinable across routers.
	Seed uint64
	// RS48 is the geometry of the two 48-bit reversible sketches
	// ({SIP,Dport} and {DIP,Dport}); RS64 of the {SIP,DIP} sketch.
	RS48, RS64 revsketch.Params
	// Verifier is the geometry of the k-ary verifier sketches paired with
	// each reversible sketch.
	Verifier sketch.Params
	// Original is the geometry of the OS({DIP,Dport}, #SYN) sketch.
	Original sketch.Params
	// TwoD is the geometry of the two 2D classification sketches.
	TwoD sketch2d.Params
	// ServiceCapacity sizes the active-service Bloom filter.
	ServiceCapacity int
	// BurstWindow, when positive, enables the ALBUS-style sub-interval
	// burst monitor: burst.Slots reversible sketches at the RS48
	// geometry (one shared hash family) cycle through wall-clock
	// windows of BurstWindow, recording the {DIP,Dport} #SYN−#SYN/ACK
	// signal per sub-interval so pulse floods shorter than one EWMA
	// interval stay visible. Zero disables the monitor.
	BurstWindow time.Duration
	// Reflection enables the reflection/amplification monitor: one
	// reversible sketch at the RS48 geometry over {DIP, service Sport},
	// paired with a verifier at the Verifier geometry, recording inbound
	// SYN/ACKs minus outbound SYNs, so unsolicited handshake responses
	// (reflected floods) accumulate positive mass while benign round
	// trips cancel to zero.
	Reflection bool
}

// PaperRecorderConfig returns the configuration of paper §5.1 (13.2 MB).
func PaperRecorderConfig(seed uint64) RecorderConfig {
	return RecorderConfig{
		Seed:            seed,
		RS48:            revsketch.Params48(),
		RS64:            revsketch.Params64(),
		Verifier:        sketch.Params{Stages: 6, Buckets: 1 << 14},
		Original:        sketch.Params{Stages: 6, Buckets: 1 << 14},
		TwoD:            sketch2d.PaperParams(),
		ServiceCapacity: 1 << 20,
	}
}

// TestRecorderConfig returns a scaled-down configuration for fast tests:
// the same structure set with smaller tables (24-bit reversible keys would
// not fit real addresses, so key widths stay at 48/64 bits and only bucket
// counts shrink).
func TestRecorderConfig(seed uint64) RecorderConfig {
	cfg := PaperRecorderConfig(seed)
	// RS64 keeps the paper's 2^16 buckets: its 4-bit chunks are what keep
	// reverse hashing tractable once several {SIP,DIP} keys are heavy at
	// once (3-bit chunks saturate and the inference search degenerates).
	cfg.Verifier.Buckets = 1 << 12
	cfg.Original.Buckets = 1 << 12
	cfg.TwoD.XBuckets = 1 << 10
	cfg.ServiceCapacity = 1 << 16
	return cfg
}

// Recorder is the streaming data-recording front end of HiFIND: the three
// reversible sketches, their verifiers, the original sketch, the two 2D
// sketches and the active-service Bloom filter (paper §5.1). A Recorder
// holds one interval's traffic; detection reads it in place and Reset
// starts the next interval. Recorders are the unit of multi-router
// aggregation: AddBinary sums serialized recorder states into a live one
// by sketch linearity.
//
// Recorder methods are not safe for concurrent use.
type Recorder struct {
	cfg RecorderConfig

	// Reversible sketches, value #SYN−#SYN/ACK (paper §3.3).
	RSSipDport *revsketch.Sketch
	RSDipDport *revsketch.Sketch
	RSSipDip   *revsketch.Sketch
	// Verifier sketches, same keys and value, conventional hashing.
	VerSipDport *sketch.Sketch
	VerDipDport *sketch.Sketch
	VerSipDip   *sketch.Sketch
	// Original sketch, value #SYN, key {DIP,Dport} — the #SYN side of the
	// Phase-3 ratio heuristic.
	OSDipDport *sketch.Sketch
	// 2D sketches: x={SIP,Dport}×y={DIP} and x={SIP,DIP}×y={Dport}.
	TwoDSipDportXDip *sketch2d.Sketch
	TwoDSipDipXDport *sketch2d.Sketch
	// Burst is the sub-interval burst monitor over {DIP,Dport} — nil
	// unless cfg.BurstWindow is positive. Reflect is the reflection
	// monitor over {DIP, service Sport} — nil unless cfg.Reflection.
	Burst   *burst.Array
	Reflect *revsketch.Sketch
	// VerReflect is the reflection monitor's verifier: same key and
	// value, conventional hashing, so reverse-hashing aliases of a
	// reflection victim die as the main steps' aliases do. Nil with
	// Reflect.
	VerReflect *sketch.Sketch
	// Services remembers {DIP,Dport} pairs that have produced SYN/ACKs —
	// cross-interval state for the misconfiguration filter (§3.4).
	Services *bloom.Filter

	packets        int64
	memoryAccesses int64

	// plans is the preallocated hash-plan scratch — one bucket plan per
	// structure, filled and applied once per update.
	plans updatePlans
	// blocks lists the structures in wire order (MarshalBinary,
	// AddBinary); counters lists those whose counters hold one interval,
	// every block but Services (Reset, MemoryBytes).
	blocks   []wireBlock
	counters []counterBlock
}

// updatePlans holds one reusable bucket plan per recorder structure.
type updatePlans struct {
	rsSipDport, rsDipDport, rsSipDip *revsketch.Plan
	verSipDport                      *sketch.Plan
	verDipDport                      *sketch.Plan
	verSipDip                        *sketch.Plan
	osDipDport                       *sketch.Plan
	twoDSipDportXDip                 *sketch2d.Plan
	twoDSipDipXDport                 *sketch2d.Plan
}

// NewRecorder builds an empty recorder.
func NewRecorder(cfg RecorderConfig) (*Recorder, error) {
	if cfg.Seed == 0 {
		return nil, fmt.Errorf("core: recorder seed must be nonzero (shared across routers)")
	}
	if cfg.ServiceCapacity < 1 {
		return nil, fmt.Errorf("core: service capacity %d < 1", cfg.ServiceCapacity)
	}
	r := &Recorder{cfg: cfg}
	var err error
	// Distinct derived seeds keep the structures independent while still
	// being reproducible from the one configured seed.
	if r.RSSipDport, err = revsketch.New(cfg.RS48, cfg.Seed^0x01); err != nil {
		return nil, fmt.Errorf("core: RS{SIP,Dport}: %w", err)
	}
	if r.RSDipDport, err = revsketch.New(cfg.RS48, cfg.Seed^0x02); err != nil {
		return nil, fmt.Errorf("core: RS{DIP,Dport}: %w", err)
	}
	if r.RSSipDip, err = revsketch.New(cfg.RS64, cfg.Seed^0x03); err != nil {
		return nil, fmt.Errorf("core: RS{SIP,DIP}: %w", err)
	}
	if r.VerSipDport, err = sketch.New(cfg.Verifier, cfg.Seed^0x04); err != nil {
		return nil, fmt.Errorf("core: verifier {SIP,Dport}: %w", err)
	}
	if r.VerDipDport, err = sketch.New(cfg.Verifier, cfg.Seed^0x05); err != nil {
		return nil, fmt.Errorf("core: verifier {DIP,Dport}: %w", err)
	}
	if r.VerSipDip, err = sketch.New(cfg.Verifier, cfg.Seed^0x06); err != nil {
		return nil, fmt.Errorf("core: verifier {SIP,DIP}: %w", err)
	}
	if r.OSDipDport, err = sketch.New(cfg.Original, cfg.Seed^0x07); err != nil {
		return nil, fmt.Errorf("core: OS{DIP,Dport}: %w", err)
	}
	if r.TwoDSipDportXDip, err = sketch2d.New(cfg.TwoD, cfg.Seed^0x08); err != nil {
		return nil, fmt.Errorf("core: 2D {SIP,Dport}×{DIP}: %w", err)
	}
	if r.TwoDSipDipXDport, err = sketch2d.New(cfg.TwoD, cfg.Seed^0x09); err != nil {
		return nil, fmt.Errorf("core: 2D {SIP,DIP}×{Dport}: %w", err)
	}
	if r.Services, err = bloom.New(cfg.ServiceCapacity, 0.01, cfg.Seed^0x0a); err != nil {
		return nil, fmt.Errorf("core: service filter: %w", err)
	}
	if cfg.BurstWindow > 0 {
		if r.Burst, err = burst.New(cfg.RS48, cfg.BurstWindow, cfg.Seed^0x0e); err != nil {
			return nil, fmt.Errorf("core: burst monitor: %w", err)
		}
	} else if cfg.BurstWindow < 0 {
		return nil, fmt.Errorf("core: burst window %v < 0", cfg.BurstWindow)
	}
	if cfg.Reflection {
		if r.Reflect, err = revsketch.New(cfg.RS48, cfg.Seed^0x0f); err != nil {
			return nil, fmt.Errorf("core: reflection monitor: %w", err)
		}
		if r.VerReflect, err = sketch.New(cfg.Verifier, cfg.Seed^0x10); err != nil {
			return nil, fmt.Errorf("core: reflection verifier: %w", err)
		}
	}
	r.plans = r.newPlans()
	r.counters, r.blocks = r.newBlocks()
	return r, nil
}

// newPlans sizes one bucket plan per structure.
func (r *Recorder) newPlans() updatePlans {
	return updatePlans{
		rsSipDport:       r.RSSipDport.NewPlan(),
		rsDipDport:       r.RSDipDport.NewPlan(),
		rsSipDip:         r.RSSipDip.NewPlan(),
		verSipDport:      r.VerSipDport.NewPlan(),
		verDipDport:      r.VerDipDport.NewPlan(),
		verSipDip:        r.VerSipDip.NewPlan(),
		osDipDport:       r.OSDipDport.NewPlan(),
		twoDSipDportXDip: r.TwoDSipDportXDip.NewPlan(),
		twoDSipDipXDport: r.TwoDSipDipXDport.NewPlan(),
	}
}

// Observe records one packet: a flow record of weight one. A SYN or a
// SYN/ACK (paper §3.3) goes to record with a count of 1; every other
// packet is only counted.
func (r *Recorder) Observe(pkt netmodel.Packet) {
	r.packets++
	switch {
	case pkt.Flags.IsSYN():
		r.record(pkt.Dir, pkt.SrcIP, pkt.DstIP, pkt.SrcPort, pkt.DstPort, 1, 0, pkt.Timestamp)
	case pkt.Flags.IsSYNACK():
		r.record(pkt.Dir, pkt.SrcIP, pkt.DstIP, pkt.SrcPort, pkt.DstPort, 0, 1, pkt.Timestamp)
	}
}

// ObserveFlow records a NetFlow-style flow record (the evaluation traces
// in the paper are NetFlow exports) with one weighted update per
// structure, whatever its counts: sketch linearity makes Update(k, v·c)
// identical to c repeated Update(k, v), including under int32
// wraparound. Only the record's inbound SYNs or
// outbound SYN/ACKs count as packets; the burst monitor takes the
// record's start slot, the finest timing the export format carries.
func (r *Recorder) ObserveFlow(rec netmodel.FlowRecord) {
	syns, acks := max(int64(rec.SYNs), 0), max(int64(rec.SYNACKs), 0)
	switch rec.Dir {
	case netmodel.Inbound:
		r.packets += syns
	case netmodel.Outbound:
		r.packets += acks
	}
	r.record(rec.Dir, rec.SrcIP, rec.DstIP, rec.SrcPort, rec.DstPort, syns, acks, rec.Start)
}

// flowChunk bounds one weighted update's collapsed packet count well
// inside int32 range.
const flowChunk = 1 << 30

// record is the one per-event routine: syns SYNs and acks SYN/ACKs that
// crossed the edge in direction dir from sip:sport to dip:dport, seen at
// ts. Inbound SYNs and outbound SYN/ACKs are the #SYN−#SYN/ACK signal of
// connection client→server:port (for a SYN/ACK the client is the
// destination): they feed the sketch set through update, the burst
// monitor under {server, port}, and for SYN/ACKs the active-service
// filter. Outbound SYNs and inbound SYN/ACKs feed only the reflection
// monitor, under {internal host, service port}: a benign round trip nets
// to zero there, and unsolicited SYN/ACKs (reflected floods) accumulate.
// The chunk loop keeps every int32 weight exact for counts past 2^31 (a
// count ≡ 0 mod 2^32 must not skip the OS sketch); chunks are exact by
// linearity, and a realistic record takes one iteration.
func (r *Recorder) record(dir netmodel.Direction, sip, dip netmodel.IPv4, sport, dport uint16, syns, acks int64, ts time.Time) {
	var (
		client, server netmodel.IPv4
		port           uint16
		conn, refl     int64 // signed counts: the main signal, the reflection signal
		reflKey        uint64
	)
	switch dir {
	case netmodel.Inbound:
		client, server, port = sip, dip, dport
		conn, refl = syns, acks
		reflKey = netmodel.PackDIPDport(dip, sport)
	case netmodel.Outbound:
		client, server, port = dip, sip, sport
		conn, refl = -acks, -syns
		reflKey = netmodel.PackDIPDport(sip, dport)
		if acks > 0 {
			r.Services.Add(netmodel.PackDIPDport(server, port))
			r.memoryAccesses += 7 // k≈7 bit-writes for a 1% Bloom filter
		}
	default:
		return
	}
	slot := 0
	if r.Burst != nil {
		slot = r.Burst.Slot(ts)
	}
	if r.Reflect == nil {
		refl = 0
	}
	for conn != 0 || refl != 0 {
		c := max(-flowChunk, min(conn, flowChunk))
		f := max(-flowChunk, min(refl, flowChunk))
		if c != 0 {
			r.update(client, server, port, int32(c))
			if r.Burst != nil {
				r.Burst.Update(slot, netmodel.PackDIPDport(server, port), int32(c))
				r.memoryAccesses += int64(r.Burst.AccessesPerUpdate()) * max(c, -c)
			}
		}
		if f != 0 {
			r.Reflect.Update(reflKey, int32(f))
			r.VerReflect.Update(reflKey, int32(f))
			r.memoryAccesses += int64(r.cfg.RS48.Stages+r.cfg.Verifier.Stages) * max(f, -f)
		}
		conn -= c
		refl -= f
	}
}

// update applies weight v to every #SYN−#SYN/ACK structure under
// connection (sip,dip,dport) — +c for c SYNs, −c for c SYN/ACKs — and
// a positive v to the OS sketch, accounting memory accesses for the |v|
// packets it collapses. Each key's hash work happens exactly once: the
// five hashed values (three packed connection keys plus the two 2D
// y-keys) get their polynomial powers computed up front and fanned out
// to every structure consuming them, and counter writes go through the
// recorder's preallocated bucket plans. State is
// bit-identical to calling each structure's Update in turn: power-basis
// Poly4 evaluation equals Horner on the reduced field, plans cache
// exactly the indices Update derives, and weighted adds equal repeated
// adds by linearity (the differential suite checks all three against a
// reference written that way).
func (r *Recorder) update(sip, dip netmodel.IPv4, dport uint16, v int32) {
	kSipDport := netmodel.PackSIPDport(sip, dport)
	kDipDport := netmodel.PackDIPDport(dip, dport)
	kSipDip := netmodel.PackSIPDIP(sip, dip)

	ppSipDport := sketch.PowersOf(kSipDport)
	ppDipDport := sketch.PowersOf(kDipDport)
	ppSipDip := sketch.PowersOf(kSipDip)
	ppDip := sketch.PowersOf(uint64(dip))
	ppDport := sketch.PowersOf(uint64(dport))

	p := &r.plans
	r.RSSipDport.FillPlan(kSipDport, p.rsSipDport)
	r.RSDipDport.FillPlan(kDipDport, p.rsDipDport)
	r.RSSipDip.FillPlan(kSipDip, p.rsSipDip)
	r.VerSipDport.FillPlan(ppSipDport, p.verSipDport)
	r.VerDipDport.FillPlan(ppDipDport, p.verDipDport)
	r.VerSipDip.FillPlan(ppSipDip, p.verSipDip)
	r.TwoDSipDportXDip.FillPlan(ppSipDport, ppDip, p.twoDSipDportXDip)
	r.TwoDSipDipXDport.FillPlan(ppSipDip, ppDport, p.twoDSipDipXDport)

	r.RSSipDport.UpdateAt(p.rsSipDport, v)
	r.RSDipDport.UpdateAt(p.rsDipDport, v)
	r.RSSipDip.UpdateAt(p.rsSipDip, v)
	r.VerSipDport.UpdateAt(p.verSipDport, v)
	r.VerDipDport.UpdateAt(p.verDipDport, v)
	r.VerSipDip.UpdateAt(p.verSipDip, v)
	if v > 0 {
		r.OSDipDport.FillPlan(ppDipDport, p.osDipDport)
		r.OSDipDport.UpdateAt(p.osDipDport, v)
	}
	r.TwoDSipDportXDip.UpdateAt(p.twoDSipDportXDip, v)
	r.TwoDSipDipXDport.UpdateAt(p.twoDSipDipXDport, v)

	// Counter writes per packet: Stages per RS (two at the RS48 geometry,
	// one at RS64), per verifier ×3 and per 2D ×2, plus the OS sketch's
	// on SYNs — the fixed per-packet access budget of paper §5.5.2 (no
	// per-flow state anywhere), scaled by the packets v collapses.
	acc := int64(2*r.cfg.RS48.Stages + r.cfg.RS64.Stages + 3*r.cfg.Verifier.Stages + 2*r.cfg.TwoD.Stages)
	if v > 0 {
		acc += int64(r.cfg.Original.Stages)
	}
	r.memoryAccesses += acc * int64(max(v, -v))
}

// Packets returns how many packets were observed.
func (r *Recorder) Packets() int64 { return r.packets }

// MemoryAccesses returns the cumulative counter-write count, for the
// per-packet access benchmarks.
func (r *Recorder) MemoryAccesses() int64 { return r.memoryAccesses }

// MemoryBytes totals the counter memory of every structure, the number
// compared in paper Table 9.
func (r *Recorder) MemoryBytes() int {
	total := 0
	for _, c := range r.counters {
		total += c.MemoryBytes()
	}
	return total
}

// Reset clears per-interval counters. The active-service memory is
// long-lived and survives (misconfigured destinations must stay
// distinguishable from services that were active in earlier intervals).
func (r *Recorder) Reset() {
	for _, c := range r.counters {
		c.Reset()
	}
	r.packets = 0
}

// wireBlock is one structure's block of the recorder wire format.
type wireBlock interface {
	MarshalBinary() ([]byte, error)
	AddBinary(data []byte, apply bool) error
}

// counterBlock is a wire block whose counters hold one interval.
type counterBlock interface {
	wireBlock
	Reset()
	MemoryBytes() int
}

// newBlocks lists the per-interval structures, and every structure in
// wire order: the sketches, the active-service memory, then the
// monitors. Monitor blocks follow the common set, so a structure-set
// mismatch fails the block count check rather than silently
// misparsing.
func (r *Recorder) newBlocks() (counters []counterBlock, blocks []wireBlock) {
	counters = []counterBlock{
		r.RSSipDport, r.RSDipDport, r.RSSipDip,
		r.VerSipDport, r.VerDipDport, r.VerSipDip,
		r.OSDipDport,
		r.TwoDSipDportXDip, r.TwoDSipDipXDport,
	}
	sketches := len(counters)
	if r.Burst != nil {
		counters = append(counters, r.Burst)
	}
	if r.Reflect != nil {
		counters = append(counters, r.Reflect, r.VerReflect)
	}
	for _, c := range counters[:sketches] {
		blocks = append(blocks, c)
	}
	blocks = append(blocks, r.Services)
	for _, c := range counters[sketches:] {
		blocks = append(blocks, c)
	}
	return counters, blocks
}

// MarshalBinary serializes every structure for transport to an
// aggregation site. The encoding is the packet count followed by one
// length-prefixed block per structure.
func (r *Recorder) MarshalBinary() ([]byte, error) {
	encoded := make([][]byte, len(r.blocks))
	size := 8
	for i, b := range r.blocks {
		data, err := b.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("core: marshal recorder: %w", err)
		}
		encoded[i] = data
		size += 4 + len(data)
	}
	out := make([]byte, 0, size)
	out = binary.LittleEndian.AppendUint64(out, uint64(r.packets))
	for _, b := range encoded {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(b)))
		out = append(out, b...)
	}
	return out, nil
}

// AddBinary adds serialized recorder states — MarshalBinary output of
// recorders built with the same configuration — into r: the
// multi-router aggregation of paper §3.1 (Table 2's COMBINE with unit
// coefficients), exact by sketch linearity. Counters and totals add,
// the active-service filter takes the union, and the packet counts
// sum. Every payload is validated (block count for r's structure set,
// then each block's length, magic, geometry and seed against r's
// structure) before any is added, so an error leaves r exactly as it
// was. It allocates nothing.
func (r *Recorder) AddBinary(payloads ...[]byte) error {
	for _, apply := range [2]bool{false, true} {
		for i, p := range payloads {
			if err := r.addPayload(p, apply); err != nil {
				return fmt.Errorf("core: payload %d: %w", i, err)
			}
		}
	}
	return nil
}

// addPayload walks one payload's blocks in wire order, handing each to
// its structure; with apply false it only validates.
func (r *Recorder) addPayload(data []byte, apply bool) error {
	if len(data) < 8 {
		return fmt.Errorf("core: recorder data truncated")
	}
	packets := int64(binary.LittleEndian.Uint64(data))
	data = data[8:]
	for i, b := range r.blocks {
		if len(data) < 4 {
			return fmt.Errorf("core: recorder block %d missing", i)
		}
		n := int(binary.LittleEndian.Uint32(data))
		data = data[4:]
		if len(data) < n {
			return fmt.Errorf("core: recorder block %d truncated", i)
		}
		if err := b.AddBinary(data[:n], apply); err != nil {
			return fmt.Errorf("core: recorder block %d: %w", i, err)
		}
		data = data[n:]
	}
	if len(data) != 0 {
		return fmt.Errorf("core: %d trailing bytes after recorder blocks", len(data))
	}
	if apply {
		r.packets += packets
	}
	return nil
}
