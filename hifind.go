// Package hifind implements HiFIND, the DoS-resilient high-speed
// flow-level intrusion detection system of Gao, Li and Chen (ICDCS 2006).
//
// HiFIND records TCP control-plane traffic into a small, fixed set of
// sketches — reversible sketches keyed by {SIP,Dport}, {DIP,Dport} and
// {SIP,DIP} recording #SYN−#SYN/ACK, an original k-ary sketch recording
// #SYN, and two novel two-dimensional sketches — about 13 MB in total
// regardless of traffic volume. Once per interval it forecasts each
// sketch with an EWMA model, reverses the heavy forecast errors back into
// concrete attacker/victim keys, classifies each detection as a SYN
// flood, horizontal scan or vertical scan, and filters benign anomalies
// (congestion, misconfiguration) out of the flooding alerts.
//
// Basic use:
//
//	det, err := hifind.New()
//	...
//	for pkt := range packets {
//		det.Observe(pkt)
//	}
//	res, err := det.EndInterval() // once per minute
//	for _, alert := range res.Final { ... }
//
// Because every recording structure is linear, per-router state can be
// serialized (Recorder, StateSnapshot) and summed at a central site
// (EndIntervalMerged) to detect attacks split across asymmetric routes —
// see ExampleDetector_EndIntervalMerged.
package hifind

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"sync/atomic"
	"time"

	"github.com/hifind/hifind/internal/core"
	"github.com/hifind/hifind/internal/netmodel"
	"github.com/hifind/hifind/internal/telemetry"
)

// Direction says which way a packet crossed the monitored edge.
type Direction int

// Directions.
const (
	// Inbound packets enter the monitored network from outside.
	Inbound Direction = iota + 1
	// Outbound packets leave the monitored network.
	Outbound
)

// Packet is one observed TCP packet event, described by the fields HiFIND
// needs: the IPv4 4-tuple, the handshake-relevant flags, and direction.
type Packet struct {
	Timestamp time.Time
	SrcIP     netip.Addr
	DstIP     netip.Addr
	SrcPort   uint16
	DstPort   uint16
	SYN       bool
	ACK       bool
	FIN       bool
	RST       bool
	Dir       Direction
}

// ipv4Pair converts a source and destination address; ok is false
// unless both are IPv4.
func ipv4Pair(src, dst netip.Addr) (s, d netmodel.IPv4, ok bool) {
	if !src.Is4() || !dst.Is4() {
		return 0, 0, false
	}
	s4, d4 := src.As4(), dst.As4()
	return netmodel.IPv4(binary.BigEndian.Uint32(s4[:])), netmodel.IPv4(binary.BigEndian.Uint32(d4[:])), true
}

// toInternal converts the public packet; non-IPv4 addresses report ok=false.
func (p Packet) toInternal() (netmodel.Packet, bool) {
	src, dst, ok := ipv4Pair(p.SrcIP, p.DstIP)
	if !ok {
		return netmodel.Packet{}, false
	}
	var flags netmodel.TCPFlags
	if p.SYN {
		flags |= netmodel.FlagSYN
	}
	if p.ACK {
		flags |= netmodel.FlagACK
	}
	if p.FIN {
		flags |= netmodel.FlagFIN
	}
	if p.RST {
		flags |= netmodel.FlagRST
	}
	return netmodel.Packet{
		Timestamp: p.Timestamp,
		SrcIP:     src,
		DstIP:     dst,
		SrcPort:   p.SrcPort,
		DstPort:   p.DstPort,
		Flags:     flags,
		Dir:       netmodel.Direction(p.Dir),
	}, true
}

// AlertType classifies a detection.
type AlertType int

// Alert types.
const (
	SYNFlood AlertType = iota + 1
	HorizontalScan
	VerticalScan
	// BlockScan marks a source sweeping an address range × port range,
	// recognized by merging its simultaneous horizontal- and vertical-
	// scan detections.
	BlockScan
	// BurstFlood marks a sub-interval SYN pulse against one service:
	// below the flood threshold over the whole interval, above the slot
	// threshold inside one window (WithBurstDetection).
	BurstFlood
	// PersistentScan marks a source probing one port below the
	// per-interval threshold, interval after interval
	// (WithPersistentFlowDetection).
	PersistentScan
	// Reflection marks unsolicited SYN/ACK backscatter flooding a victim
	// through a reflecting service port (WithReflectionDetection).
	Reflection
)

// String names the alert type.
func (t AlertType) String() string {
	switch t {
	case SYNFlood:
		return "syn-flood"
	case HorizontalScan:
		return "hscan"
	case VerticalScan:
		return "vscan"
	case BlockScan:
		return "blockscan"
	case BurstFlood:
		return "burst-flood"
	case PersistentScan:
		return "persist-scan"
	case Reflection:
		return "reflection"
	default:
		return fmt.Sprintf("alerttype(%d)", int(t))
	}
}

// Alert is one detected intrusion with the culprit flow keys recovered by
// the reversible sketches.
type Alert struct {
	Type     AlertType
	Interval int
	// Attacker is the offending source (invalid Addr for spoofed floods).
	Attacker netip.Addr
	// Victim is the targeted address (invalid for horizontal scans, which
	// sweep many).
	Victim netip.Addr
	// Port is the targeted service port (0 for vertical scans).
	Port uint16
	// Spoofed marks floods with no attributable source.
	Spoofed bool
	// Magnitude is the forecast-error change that triggered the alert,
	// in un-responded SYNs per interval.
	Magnitude float64
	// Fanout approximates the number of distinct hosts (hscan) or ports
	// (vscan) touched.
	Fanout int
	// Slot is the sub-interval window whose counters peaked, for
	// burst-flood alerts (0 otherwise).
	Slot int
	// Partial marks alerts from an interval merged without every router's
	// report (multi-router aggregation under a deadline); magnitudes are
	// lower bounds there.
	Partial bool
}

// String renders the alert for humans.
func (a Alert) String() string {
	switch a.Type {
	case SYNFlood:
		who := "spoofed sources"
		if !a.Spoofed && a.Attacker.IsValid() {
			who = a.Attacker.String()
		}
		return fmt.Sprintf("SYN flood: %s -> %s:%d (Δ=%.0f unresponded SYNs)",
			who, a.Victim, a.Port, a.Magnitude)
	case HorizontalScan:
		return fmt.Sprintf("horizontal scan: %s probing port %d on ~%d hosts (Δ=%.0f)",
			a.Attacker, a.Port, a.Fanout, a.Magnitude)
	case VerticalScan:
		return fmt.Sprintf("vertical scan: %s probing %s on ~%d ports (Δ=%.0f)",
			a.Attacker, a.Victim, a.Fanout, a.Magnitude)
	case BlockScan:
		return fmt.Sprintf("block scan: %s sweeping an address × port block (%d scan keys, Δ=%.0f)",
			a.Attacker, a.Fanout, a.Magnitude)
	case BurstFlood:
		return fmt.Sprintf("burst flood: pulse against %s:%d in window %d (peak=%.0f SYNs)",
			a.Victim, a.Port, a.Slot, a.Magnitude)
	case PersistentScan:
		return fmt.Sprintf("persistent scan: %s probing port %d below threshold on ~%d hosts (rate=%.0f/interval)",
			a.Attacker, a.Port, a.Fanout, a.Magnitude)
	case Reflection:
		return fmt.Sprintf("reflection: unsolicited SYN/ACKs flooding %s via port %d (Δ=%.0f)",
			a.Victim, a.Port, a.Magnitude)
	default:
		return "unknown alert"
	}
}

// Result reports one interval's detections at each pipeline phase: Raw
// (three-step reversible-sketch detection), AfterClassification (2D
// sketches have re-typed stealthy floods reported as scans) and Final
// (flooding false-positive heuristics applied). Most callers only need
// Final; the earlier phases exist for observability and research.
type Result struct {
	Interval            int
	Raw                 []Alert
	AfterClassification []Alert
	Final               []Alert
	DetectionTime       time.Duration
	// Partial marks an interval whose merge closed at the collection
	// deadline without every router's state. Detection over the surviving
	// routers is sound but a lower bound.
	Partial bool
}

// Detector is a complete HiFIND instance. The sketch-recording path is
// not safe for concurrent use: Observe, ObserveFlow and EndInterval
// must all run on one goroutine (or be externally serialized). To feed
// from several goroutines, do what the paper does across routers
// (§3.1): give each extra goroutine its own Recorder built with the
// same options and pass every Recorder's StateSnapshot to
// EndIntervalMerged at rotation — sketch linearity makes the sum exact,
// so alerts and SaveState bytes match a single-goroutine run. Only
// Dropped may be called concurrently with ingestion; its counter is
// atomic.
type Detector struct {
	det      *core.Detector
	interval time.Duration
	dropped  atomic.Int64
	ins      instruments
	sink     telemetry.Sink
}

// New builds a detector with the paper's default configuration (13.2 MB
// of sketches, one-minute intervals, one un-responded SYN per second).
func New(opts ...Option) (*Detector, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	rcfg, dcfg := cfg.build()
	det, err := core.NewDetector(rcfg, dcfg)
	if err != nil {
		return nil, err
	}
	return &Detector{
		det:      det,
		interval: cfg.interval,
		ins:      newInstruments(cfg.reg),
		sink:     cfg.sink,
	}, nil
}

// Interval returns the configured interval length.
func (d *Detector) Interval() time.Duration { return d.interval }

// Observe records one packet. Non-IPv4 packets are counted and dropped
// (the paper's system is IPv4-only). Not safe for concurrent use — see
// the Detector contract.
//
//hifind:hot
func (d *Detector) Observe(p Packet) {
	ip, ok := p.toInternal()
	if !ok {
		d.dropped.Add(1)
		d.ins.dropped.Inc()
		return
	}
	d.observeInternal(ip)
}

// Flow is a NetFlow-style unidirectional flow summary, the alternative
// input unit to packets (the paper's evaluation consumed NetFlow exports,
// §5.1). SYNs counts connection-opening SYNs in the flow; SYNACKs counts
// handshake answers (meaningful for flows originating at the server side).
type Flow struct {
	SrcIP   netip.Addr
	DstIP   netip.Addr
	SrcPort uint16
	DstPort uint16
	Dir     Direction
	SYNs    int
	SYNACKs int
}

// toInternal converts the public flow; non-IPv4 addresses report ok=false.
func (f Flow) toInternal() (netmodel.FlowRecord, bool) {
	src, dst, ok := ipv4Pair(f.SrcIP, f.DstIP)
	if !ok {
		return netmodel.FlowRecord{}, false
	}
	return netmodel.FlowRecord{
		SrcIP:   src,
		DstIP:   dst,
		SrcPort: f.SrcPort,
		DstPort: f.DstPort,
		Dir:     netmodel.Direction(f.Dir),
		SYNs:    f.SYNs,
		SYNACKs: f.SYNACKs,
	}, true
}

// ObserveFlow records one flow summary. Non-IPv4 flows are counted and
// dropped like non-IPv4 packets. Not safe for concurrent use — see the
// Detector contract.
//
//hifind:hot
func (d *Detector) ObserveFlow(f Flow) {
	fr, ok := f.toInternal()
	if !ok {
		d.dropped.Add(1)
		d.ins.dropped.Inc()
		return
	}
	d.observeFlowInternal(fr)
}

// Dropped returns how many packets were ignored as non-IPv4. Safe to
// call concurrently with ingestion.
func (d *Detector) Dropped() int64 { return d.dropped.Load() }

// observeInternal feeds a converted packet: Observe's tail and the
// replay path's entry.
func (d *Detector) observeInternal(pkt netmodel.Packet) {
	d.det.Observe(pkt)
	d.ins.packets.Inc()
}

// observeFlowInternal feeds a converted flow record: ObserveFlow's tail
// and the replay path's entry.
func (d *Detector) observeFlowInternal(fr netmodel.FlowRecord) {
	d.det.ObserveFlow(fr)
	d.ins.flows.Inc()
}

// MemoryBytes returns the total sketch memory, which is independent of
// traffic volume — the basis of HiFIND's DoS resilience.
func (d *Detector) MemoryBytes() int { return d.det.Recorder().MemoryBytes() }

// EndInterval closes the current measurement interval, runs detection and
// resets the recording structures for the next interval.
func (d *Detector) EndInterval() (Result, error) {
	res, err := d.det.EndInterval()
	if err != nil {
		return Result{}, err
	}
	d.ins.recordInterval(res)
	out := convertResult(res)
	emitResult(d.sink, out)
	return out, nil
}

// EndIntervalMerged runs detection over the sum of this detector's own
// recorded state and the serialized states of remote Recorders (the
// multi-router deployment of paper §3.1/Figure 3). All participants must
// have been built with the same options, in particular the same seed.
// The states are added into the detector's own recording structures, so
// its active-service memory — and therefore SaveState — holds what every
// Recorder saw, byte for byte what one Detector fed all the traffic
// would hold. A state that fails validation leaves the detector
// untouched.
func (d *Detector) EndIntervalMerged(states ...[]byte) (Result, error) {
	if err := d.det.Recorder().AddBinary(states...); err != nil {
		return Result{}, fmt.Errorf("hifind: %w", err)
	}
	return d.EndInterval()
}

// SaveState serializes the detector's cross-interval state — EWMA
// forecasts, active-service memory, alert persistence — so a restarted
// process can resume without re-learning (see LoadState). Call it at
// interval boundaries, right after EndInterval.
func (d *Detector) SaveState() ([]byte, error) {
	return d.det.MarshalState()
}

// LoadState restores state saved by SaveState into a detector built with
// the same options.
func (d *Detector) LoadState(state []byte) error {
	return d.det.RestoreState(state)
}

// Recorder is a recording-only HiFIND instance for edge routers in an
// aggregated deployment: it observes traffic and ships its serialized
// sketch state to the site running the Detector. Not safe for concurrent
// use.
type Recorder struct {
	rec     *core.Recorder
	dropped atomic.Int64
	ins     instruments
}

// NewRecorder builds a recording-only instance. Use the same options as
// the central Detector.
func NewRecorder(opts ...Option) (*Recorder, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	rcfg, _ := cfg.build()
	rec, err := core.NewRecorder(rcfg)
	if err != nil {
		return nil, err
	}
	return &Recorder{rec: rec, ins: newInstruments(cfg.reg)}, nil
}

// Observe records one packet.
//
//hifind:hot
func (r *Recorder) Observe(p Packet) {
	ip, ok := p.toInternal()
	if !ok {
		r.dropped.Add(1)
		r.ins.dropped.Inc()
		return
	}
	r.rec.Observe(ip)
	r.ins.packets.Inc()
}

// Dropped returns how many packets were ignored as non-IPv4. Safe to
// call concurrently with ingestion.
func (r *Recorder) Dropped() int64 { return r.dropped.Load() }

// StateSnapshot serializes the interval's recorded state for transport to
// the aggregation site and resets the recorder for the next interval. A
// Recorder keeps nothing across intervals: the active services it saw
// travel in the snapshot like its counters do, and the merging Detector
// accumulates them (and checkpoints them in SaveState).
func (r *Recorder) StateSnapshot() ([]byte, error) {
	data, err := r.rec.MarshalBinary()
	if err != nil {
		return nil, err
	}
	r.rec.Reset()
	r.rec.Services.Reset()
	return data, nil
}

// MemoryBytes returns the recorder's fixed sketch memory.
func (r *Recorder) MemoryBytes() int { return r.rec.MemoryBytes() }

// convertResult maps the internal result to the public one.
func convertResult(res core.IntervalResult) Result {
	return Result{
		Interval:            res.Interval,
		Raw:                 convertAlerts(res.Raw),
		AfterClassification: convertAlerts(res.Phase2),
		Final:               convertAlerts(res.Final),
		DetectionTime:       time.Duration(res.DetectionSeconds * float64(time.Second)),
		Partial:             res.Partial,
	}
}

func convertAlerts(in []core.Alert) []Alert {
	out := make([]Alert, len(in))
	for i, a := range in {
		out[i] = Alert{
			Interval:  a.Interval,
			Spoofed:   a.Spoofed,
			Magnitude: a.Estimate,
			Fanout:    a.FanoutEstimate,
			Port:      a.Port,
			Slot:      a.Slot,
			Partial:   a.Partial,
		}
		switch a.Type {
		case core.AlertSYNFlood:
			out[i].Type = SYNFlood
			out[i].Victim = toAddr(a.DIP)
			if !a.Spoofed {
				out[i].Attacker = toAddr(a.SIP)
			}
		case core.AlertHScan:
			out[i].Type = HorizontalScan
			out[i].Attacker = toAddr(a.SIP)
		case core.AlertVScan:
			out[i].Type = VerticalScan
			out[i].Attacker = toAddr(a.SIP)
			out[i].Victim = toAddr(a.DIP)
		case core.AlertBlockScan:
			out[i].Type = BlockScan
			out[i].Attacker = toAddr(a.SIP)
		case core.AlertBurstFlood:
			out[i].Type = BurstFlood
			out[i].Victim = toAddr(a.DIP)
		case core.AlertPersistScan:
			out[i].Type = PersistentScan
			out[i].Attacker = toAddr(a.SIP)
		case core.AlertReflection:
			out[i].Type = Reflection
			out[i].Victim = toAddr(a.DIP)
		}
	}
	return out
}

func toAddr(ip netmodel.IPv4) netip.Addr {
	return netip.AddrFrom4(ip.Octets())
}
