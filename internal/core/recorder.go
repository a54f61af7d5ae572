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
// holds one interval's traffic; detection snapshots it and Reset starts
// the next interval. Recorders are the unit of multi-router aggregation:
// AddBinary sums serialized recorder states into a live one by sketch
// linearity.
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
	// AddBinary).
	blocks []wireBlock
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
	r.blocks = r.newBlocks()
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

// Config returns the recorder configuration.
func (r *Recorder) Config() RecorderConfig { return r.cfg }

// Observe records one packet. Only two packet classes matter to the
// #SYN−#SYN/ACK signal (paper §3.3): connection-opening SYNs crossing the
// edge inbound add one under the connection keys, and the answering
// outbound SYN/ACKs subtract one under the same keys (for a SYN/ACK the
// connection's client is the packet destination). Everything else is
// ignored.
func (r *Recorder) Observe(pkt netmodel.Packet) {
	switch {
	case pkt.Dir == netmodel.Inbound && pkt.Flags.IsSYN():
		r.flushFlow(pkt.SrcIP, pkt.DstIP, pkt.DstPort, 1, 0)
		if r.Burst != nil {
			r.burstUpdate(pkt.Timestamp, netmodel.PackDIPDport(pkt.DstIP, pkt.DstPort), +1, 1)
		}
	case pkt.Dir == netmodel.Outbound && pkt.Flags.IsSYNACK():
		// Connection client = pkt.DstIP, server = pkt.SrcIP:pkt.SrcPort.
		r.flushFlow(pkt.DstIP, pkt.SrcIP, pkt.SrcPort, 0, 1)
		r.Services.Add(netmodel.PackDIPDport(pkt.SrcIP, pkt.SrcPort))
		r.memoryAccesses += 7 // k≈7 bit-writes for a 1% Bloom filter
		if r.Burst != nil {
			r.burstUpdate(pkt.Timestamp, netmodel.PackDIPDport(pkt.SrcIP, pkt.SrcPort), -1, 1)
		}
	case pkt.Dir == netmodel.Outbound && pkt.Flags.IsSYN():
		// Outbound connection attempt: subtract under {requester, service
		// port} so the answering SYN/ACK below nets a benign round trip
		// to zero. Ignored unless the reflection monitor is on.
		if r.Reflect != nil {
			r.reflectUpdate(netmodel.PackDIPDport(pkt.SrcIP, pkt.DstPort), -1, 1)
		}
	case pkt.Dir == netmodel.Inbound && pkt.Flags.IsSYNACK():
		// Handshake response entering the edge: add under {destination,
		// responding service port}. Unsolicited ones — reflected floods —
		// have no outbound SYN to cancel against and accumulate.
		if r.Reflect != nil {
			r.reflectUpdate(netmodel.PackDIPDport(pkt.DstIP, pkt.SrcPort), +1, 1)
		}
	}
	r.packets++
}

// burstUpdate folds one weighted update into the burst monitor's slot
// for ts, charging the access budget for n collapsed packets.
func (r *Recorder) burstUpdate(ts time.Time, key uint64, v int32, n int64) {
	r.Burst.Update(r.Burst.Slot(ts), key, v)
	r.memoryAccesses += int64(r.Burst.AccessesPerUpdate()) * n
}

// reflectUpdate folds one weighted update into the reflection monitor
// and its verifier.
func (r *Recorder) reflectUpdate(key uint64, v int32, n int64) {
	r.Reflect.Update(key, v)
	r.VerReflect.Update(key, v)
	r.memoryAccesses += int64(r.cfg.RS48.Stages+r.cfg.Verifier.Stages) * n
}

// ObserveFlow records a NetFlow-style flow record (the evaluation traces
// in the paper are NetFlow exports). Each record is one exact weighted
// update per direction — sketch linearity makes Update(k, v·c) identical
// to c repeated Update(k, v), including under int32 wraparound — so
// replay cost is O(1) per record instead of O(SYNs).
func (r *Recorder) ObserveFlow(rec netmodel.FlowRecord) {
	if rec.Dir == netmodel.Inbound && rec.SYNs > 0 {
		r.flushFlow(rec.SrcIP, rec.DstIP, rec.DstPort, int64(rec.SYNs), 0)
		r.packets += int64(rec.SYNs)
	}
	if rec.Dir == netmodel.Outbound && rec.SYNACKs > 0 {
		r.flushFlow(rec.DstIP, rec.SrcIP, rec.SrcPort, 0, int64(rec.SYNACKs))
		r.Services.Add(netmodel.PackDIPDport(rec.SrcIP, rec.SrcPort))
		r.packets += int64(rec.SYNACKs)
	}
	if r.Burst != nil {
		// A NetFlow record collapses its SYNs into the record's start
		// slot — the finest timing the export format carries.
		if rec.Dir == netmodel.Inbound && rec.SYNs > 0 {
			r.burstFlow(rec.Start, netmodel.PackDIPDport(rec.DstIP, rec.DstPort), rec.SYNs, +1)
		}
		if rec.Dir == netmodel.Outbound && rec.SYNACKs > 0 {
			r.burstFlow(rec.Start, netmodel.PackDIPDport(rec.SrcIP, rec.SrcPort), rec.SYNACKs, -1)
		}
	}
	if r.Reflect != nil {
		// The two record classes the #SYN−#SYN/ACK accounting above
		// ignores are exactly the reflection signal; packet counting is
		// unchanged for them.
		if rec.Dir == netmodel.Outbound && rec.SYNs > 0 {
			r.reflectFlow(netmodel.PackDIPDport(rec.SrcIP, rec.DstPort), rec.SYNs, -1)
		}
		if rec.Dir == netmodel.Inbound && rec.SYNACKs > 0 {
			r.reflectFlow(netmodel.PackDIPDport(rec.DstIP, rec.SrcPort), rec.SYNACKs, +1)
		}
	}
}

// burstFlow applies one flow record's count to the burst monitor as
// chunked weighted updates (linearity makes chunks exact).
func (r *Recorder) burstFlow(ts time.Time, key uint64, count int, sign int32) {
	slot := r.Burst.Slot(ts)
	for left := count; left > 0; {
		c := left
		if c > flowChunk {
			c = flowChunk
		}
		r.Burst.Update(slot, key, sign*int32(c))
		left -= c
	}
	r.memoryAccesses += int64(r.Burst.AccessesPerUpdate()) * int64(count)
}

// reflectFlow applies one flow record's count to the reflection monitor.
func (r *Recorder) reflectFlow(key uint64, count int, sign int32) {
	for left := count; left > 0; {
		c := left
		if c > flowChunk {
			c = flowChunk
		}
		r.Reflect.Update(key, sign*int32(c))
		r.VerReflect.Update(key, sign*int32(c))
		left -= c
	}
	r.memoryAccesses += int64(r.cfg.RS48.Stages+r.cfg.Verifier.Stages) * int64(count)
}

// flowChunk bounds one weighted update's collapsed packet count well
// inside int32 range.
const flowChunk = 1 << 30

// update applies value v to every #SYN−#SYN/ACK structure under
// connection (sip,dip,dport) and syn to the OS sketch, accounting
// memory accesses for n collapsed packets. Each key's hash work happens
// exactly once: the five hashed values (three packed connection keys
// plus the two 2D y-keys) get their polynomial powers computed up front
// and fanned out to every structure consuming them, and counter writes
// go through the recorder's preallocated bucket plans. State is
// bit-identical to calling each structure's Update in turn: power-basis
// Poly4 evaluation equals Horner on the reduced field, plans cache
// exactly the indices Update derives, and weighted adds equal repeated
// adds by linearity (the differential suite checks all three against a
// reference written that way).
func (r *Recorder) update(sip, dip netmodel.IPv4, dport uint16, v, syn int32, n int64) {
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
	if syn != 0 {
		r.OSDipDport.FillPlan(ppDipDport, p.osDipDport)
		r.OSDipDport.UpdateAt(p.osDipDport, syn)
	}
	r.TwoDSipDportXDip.UpdateAt(p.twoDSipDportXDip, v)
	r.TwoDSipDipXDport.UpdateAt(p.twoDSipDipXDport, v)

	// Counter writes per packet: 6 per RS ×3, 6 per verifier ×3, 5 per 2D
	// ×2, plus 6 for the OS on SYNs — the fixed per-packet access budget
	// of paper §5.5.2 (no per-flow state anywhere), scaled by the number
	// of packets this weighted update collapses.
	acc := int64(3*r.cfg.RS48.Stages + 3*r.cfg.Verifier.Stages + 2*r.cfg.TwoD.Stages)
	if syn != 0 {
		acc += int64(r.cfg.Original.Stages)
	}
	r.memoryAccesses += acc * n
}

// flushFlow adds syns SYNs and acks SYN/ACKs under connection
// (sip,dip,dport) as exact weighted updates, (+syns with the OS sketch
// fed) then (−acks without it). Chunking keeps the int32 weight
// faithful for pathological counts (a count ≡ 0 mod 2^32 must not skip
// the OS sketch) — one iteration for any realistic record — and chunked
// updates are exact by sketch linearity.
func (r *Recorder) flushFlow(sip, dip netmodel.IPv4, dport uint16, syns, acks int64) {
	for left := syns; left > 0; {
		c := left
		if c > flowChunk {
			c = flowChunk
		}
		r.update(sip, dip, dport, int32(c), int32(c), c)
		left -= c
	}
	for left := acks; left > 0; {
		c := left
		if c > flowChunk {
			c = flowChunk
		}
		r.update(sip, dip, dport, -int32(c), 0, c)
		left -= c
	}
}

// Packets returns how many packets were observed.
func (r *Recorder) Packets() int64 { return r.packets }

// MemoryAccesses returns the cumulative counter-write count, for the
// per-packet access benchmarks.
func (r *Recorder) MemoryAccesses() int64 { return r.memoryAccesses }

// MemoryBytes totals the counter memory of every structure, the number
// compared in paper Table 9.
func (r *Recorder) MemoryBytes() int {
	total := r.RSSipDport.MemoryBytes() + r.RSDipDport.MemoryBytes() + r.RSSipDip.MemoryBytes() +
		r.VerSipDport.MemoryBytes() + r.VerDipDport.MemoryBytes() + r.VerSipDip.MemoryBytes() +
		r.OSDipDport.MemoryBytes() +
		r.TwoDSipDportXDip.MemoryBytes() + r.TwoDSipDipXDport.MemoryBytes()
	if r.Burst != nil {
		total += r.Burst.MemoryBytes()
	}
	if r.Reflect != nil {
		total += r.Reflect.MemoryBytes() + r.VerReflect.MemoryBytes()
	}
	return total
}

// Reset clears per-interval counters. The active-service memory is
// long-lived and survives (misconfigured destinations must stay
// distinguishable from services that were active in earlier intervals).
func (r *Recorder) Reset() {
	r.RSSipDport.Reset()
	r.RSDipDport.Reset()
	r.RSSipDip.Reset()
	r.VerSipDport.Reset()
	r.VerDipDport.Reset()
	r.VerSipDip.Reset()
	r.OSDipDport.Reset()
	r.TwoDSipDportXDip.Reset()
	r.TwoDSipDipXDport.Reset()
	if r.Burst != nil {
		r.Burst.Reset()
	}
	if r.Reflect != nil {
		r.Reflect.Reset()
		r.VerReflect.Reset()
	}
	r.packets = 0
}

// wireBlock is one structure's block of the recorder wire format.
type wireBlock interface {
	MarshalBinary() ([]byte, error)
	AddBinary(data []byte, apply bool) error
}

// newBlocks lists the structures in wire order. Monitor blocks follow
// the common set, so a structure-set mismatch fails the block count
// check rather than silently misparsing.
func (r *Recorder) newBlocks() []wireBlock {
	blocks := []wireBlock{
		r.RSSipDport, r.RSDipDport, r.RSSipDip,
		r.VerSipDport, r.VerDipDport, r.VerSipDip,
		r.OSDipDport,
		r.TwoDSipDportXDip, r.TwoDSipDipXDport,
		r.Services,
	}
	if r.Burst != nil {
		blocks = append(blocks, r.Burst)
	}
	if r.Reflect != nil {
		blocks = append(blocks, r.Reflect, r.VerReflect)
	}
	return blocks
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
