// Package trace generates deterministic synthetic packet traces with
// labelled ground truth. It stands in for the NU and LBL router traces of
// the paper's evaluation (see DESIGN.md §2): the traces are unavailable
// and unlabelled, while every claim the evaluation makes is about relative
// detection behaviour, which labelled synthetic traffic reproduces while
// also letting tests verify exact correctness.
//
// A trace is a sequence of one-minute (configurable) intervals. Each
// interval mixes benign background traffic — client/server flows in both
// directions, P2P-style superspreader lookalikes — with injected attacks
// (spoofed and non-spoofed SYN floods, horizontal/vertical/block scans)
// and benign anomalies (flash crowds, transient congestion, and
// misconfiguration hotspots) that exist to exercise HiFIND's
// false-positive reduction phases.
package trace

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"github.com/hifind/hifind/internal/netmodel"
)

// AttackType labels injected events. Flood and scan types are true
// attacks; the anomaly types are benign events that naive detectors
// confuse with attacks.
type AttackType int

// Attack and anomaly types.
const (
	SYNFlood AttackType = iota + 1
	HorizontalScan
	VerticalScan
	BlockScan
	FlashCrowd
	Congestion
	Misconfig
	// BurstPulse is a SYN flood compressed into a sub-interval window:
	// all of the interval's attack SYNs land inside
	// [BurstOffset, BurstOffset+BurstWidth) instead of spreading over the
	// interval, so the per-interval rate stays under the EWMA detection
	// threshold while the instantaneous rate is flood-like.
	BurstPulse
	// StealthScan is a horizontal scan whose per-interval rate sits below
	// the detection threshold but persists across many intervals — the
	// low-and-slow shape the persistence detector accumulates.
	StealthScan
	// Reflection is a SYN/ACK amplification attack: a reflector pool
	// answers spoofed SYNs by firing unsolicited SYN/ACKs at the victim.
	// The trace carries only the reflected leg (what the edge sees).
	Reflection
)

// String names the type.
func (a AttackType) String() string {
	switch a {
	case SYNFlood:
		return "syn-flood"
	case HorizontalScan:
		return "hscan"
	case VerticalScan:
		return "vscan"
	case BlockScan:
		return "blockscan"
	case FlashCrowd:
		return "flash-crowd"
	case Congestion:
		return "congestion"
	case Misconfig:
		return "misconfig"
	case BurstPulse:
		return "burst-pulse"
	case StealthScan:
		return "stealth-scan"
	case Reflection:
		return "reflection"
	default:
		return fmt.Sprintf("attacktype(%d)", int(a))
	}
}

// IsTrueAttack reports whether the event is a real intrusion (as opposed
// to a benign anomaly that a detector should *not* alert on).
func (a AttackType) IsTrueAttack() bool {
	switch a {
	case SYNFlood, HorizontalScan, VerticalScan, BlockScan,
		BurstPulse, StealthScan, Reflection:
		return true
	default:
		return false
	}
}

// Attack describes one injected event and doubles as its ground-truth
// record.
type Attack struct {
	Type AttackType
	// Attackers lists the source addresses (empty for spoofed floods,
	// flash crowds, congestion and misconfig events, whose sources are
	// many and incidental).
	Attackers []netmodel.IPv4
	// Spoofed marks floods whose source addresses are random forgeries.
	Spoofed bool
	// Victim is the target address (scan base address for Hscan).
	Victim netmodel.IPv4
	// Ports lists the destination ports involved: the flooded service
	// port(s), the horizontally scanned port, or the vertically scanned
	// port set.
	Ports []uint16
	// Targets is the number of destination addresses touched (Hscan and
	// BlockScan sweep Victim..Victim+Targets−1).
	Targets int
	// StartInterval and EndInterval bound the event (inclusive).
	StartInterval, EndInterval int
	// Rate is the number of attack SYNs injected per interval.
	Rate int
	// ResponseRate is the fraction of attack SYNs answered with SYN/ACK
	// (victims under flood still answer a trickle; scanned open ports
	// answer; congested servers answer a little).
	ResponseRate float64
	// BurstOffset and BurstWidth confine a BurstPulse event's SYNs to
	// [BurstOffset, BurstOffset+BurstWidth) within each active interval.
	// Other types ignore both.
	BurstOffset, BurstWidth time.Duration
	// Reflectors is the size of a Reflection event's reflector pool; the
	// pool addresses are the stable ReflectorIP(0..Reflectors-1) sequence,
	// one per /8, so reflected traffic shows the source diversity the
	// backscatter validator tests for. Other types ignore it.
	Reflectors int
	// Cause is the human-readable label used by the Tables 7–8 report.
	Cause string
}

// Duration returns the number of intervals the event spans.
func (a Attack) Duration() int { return a.EndInterval - a.StartInterval + 1 }

// ActiveIn reports whether the event injects packets in interval i.
func (a Attack) ActiveIn(i int) bool { return i >= a.StartInterval && i <= a.EndInterval }

// Config parameterizes a synthetic trace.
type Config struct {
	// Seed makes the whole trace reproducible; every interval derives its
	// own generator from it, so intervals can be produced independently.
	Seed int64
	// Start is the capture start time.
	Start time.Time
	// Interval is the measurement interval length (paper default: 1 min).
	Interval time.Duration
	// Intervals is the trace length in intervals.
	Intervals int
	// InternalPrefix is the /16 the monitored edge network occupies
	// (e.g. 129.105.0.0 for the NU-like trace). Only the top half of the
	// prefix hosts real servers; the bottom half is dark space.
	InternalPrefix netmodel.IPv4
	// Servers is the number of active internal services.
	Servers int
	// BackgroundFlows is the number of benign inbound flows per interval.
	BackgroundFlows int
	// DiurnalAmplitude, in [0,1), modulates the background volume over a
	// day-long sine cycle: real edge traffic swings heavily between night
	// and noon, and HiFIND's EWMA forecasting is what keeps that swing
	// from looking like an attack. 0 disables modulation.
	DiurnalAmplitude float64
	// OutboundFlows is the number of benign internal-client flows per
	// interval (exercises the reverse direction).
	OutboundFlows int
	// FailRate is the fraction of benign flows that never complete
	// (destination busy, user typo, transient loss) — background noise
	// for the #SYN−#SYN/ACK signal.
	FailRate float64
	// P2PHosts external peers each contact P2PFanout distinct internal
	// hosts per interval with successful handshakes (superspreader
	// false-positive bait).
	P2PHosts, P2PFanout int
	// ZipfSkew, when > 1, draws background clients and their chosen
	// services from a Zipf distribution with this exponent over a stable
	// client pool instead of fresh uniform addresses: a handful of
	// elephant connections then dominate each interval, the flow-level
	// locality real edge links exhibit (the benchmark's edge-zipf-*
	// workloads). 0, the default, keeps the uniform behaviour; values in
	// (0,1] are invalid — the Zipf exponent must exceed 1.
	ZipfSkew float64
	// Attacks is the injected event list.
	Attacks []Attack
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Intervals < 1 {
		return fmt.Errorf("trace: intervals %d < 1", c.Intervals)
	}
	if c.Interval <= 0 {
		return fmt.Errorf("trace: non-positive interval %v", c.Interval)
	}
	if c.Servers < 1 {
		return fmt.Errorf("trace: servers %d < 1", c.Servers)
	}
	if c.FailRate < 0 || c.FailRate > 1 {
		return fmt.Errorf("trace: fail rate %v out of [0,1]", c.FailRate)
	}
	if c.DiurnalAmplitude < 0 || c.DiurnalAmplitude >= 1 {
		return fmt.Errorf("trace: diurnal amplitude %v out of [0,1)", c.DiurnalAmplitude)
	}
	if c.ZipfSkew != 0 && c.ZipfSkew <= 1 {
		return fmt.Errorf("trace: zipf skew %v must be 0 (off) or > 1", c.ZipfSkew)
	}
	for n, a := range c.Attacks {
		if a.StartInterval < 0 || a.EndInterval >= c.Intervals || a.StartInterval > a.EndInterval {
			return fmt.Errorf("trace: attack %d spans [%d,%d] outside trace of %d intervals",
				n, a.StartInterval, a.EndInterval, c.Intervals)
		}
		if a.Rate < 1 {
			return fmt.Errorf("trace: attack %d has rate %d", n, a.Rate)
		}
		if len(a.Ports) == 0 && a.Type != FlashCrowd {
			return fmt.Errorf("trace: attack %d has no ports", n)
		}
		if a.Type == BurstPulse {
			if a.BurstOffset < 0 || a.BurstWidth < 0 {
				return fmt.Errorf("trace: attack %d has negative burst window", n)
			}
			if a.BurstOffset+a.BurstWidth > c.Interval {
				return fmt.Errorf("trace: attack %d burst window [%v,%v) leaves the interval",
					n, a.BurstOffset, a.BurstOffset+a.BurstWidth)
			}
		}
		if a.Type == Reflection && (a.Reflectors < 1 || a.Reflectors > maxReflectors) {
			return fmt.Errorf("trace: attack %d has %d reflectors, want 1..%d",
				n, a.Reflectors, maxReflectors)
		}
	}
	return nil
}

// maxReflectors keeps every ReflectorIP in a distinct public /8 below the
// loopback block.
const maxReflectors = 100

// ReflectorIP returns the stable address of reflector j of a Reflection
// event. Consecutive reflectors land in consecutive /8 networks (11.x up),
// all public and outside every preset edge prefix, so the reflected
// SYN/ACKs show exactly the source diversity the backscatter validator's
// distinct-/8 test looks for.
func ReflectorIP(j int) netmodel.IPv4 {
	return netmodel.IPv4(0x0b00000a + uint32(j)*0x01000003)
}

// Generator produces the packets of a configured trace.
type Generator struct {
	cfg     Config
	edge    *netmodel.EdgeNetwork
	servers []service
}

type service struct {
	addr netmodel.IPv4
	port uint16
}

// wellKnownPorts is the service port mix offered by internal servers.
var wellKnownPorts = []uint16{80, 443, 25, 22, 53, 110, 143, 993, 8080, 3128}

// New builds a generator. The edge network is the /16 at InternalPrefix.
func New(cfg Config) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{cfg: cfg}
	edge, err := netmodel.NewEdgeNetwork(fmt.Sprintf("%s/16", cfg.InternalPrefix&0xffff0000))
	if err != nil {
		return nil, err
	}
	g.edge = edge
	// Active services live in the upper half of the /16; the lower half is
	// dark space for scans and misconfigurations to hit.
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed))
	g.servers = make([]service, cfg.Servers)
	for i := range g.servers {
		host := 0x8000 + rng.Intn(0x7f00)
		g.servers[i] = service{
			addr: cfg.InternalPrefix&0xffff0000 | netmodel.IPv4(host),
			port: wellKnownPorts[rng.Intn(len(wellKnownPorts))],
		}
	}
	return g, nil
}

// Edge returns the monitored edge network.
func (g *Generator) Edge() *netmodel.EdgeNetwork { return g.edge }

// Attacks returns the ground-truth event list.
func (g *Generator) Attacks() []Attack {
	out := make([]Attack, len(g.cfg.Attacks))
	copy(out, g.cfg.Attacks)
	return out
}

// Intervals returns the trace length.
func (g *Generator) Intervals() int { return g.cfg.Intervals }

// IntervalDuration returns the configured interval length.
func (g *Generator) IntervalDuration() time.Duration { return g.cfg.Interval }

// Services returns the active internal services (used by tests and by
// the Table 9 harness to seed the active-service memory).
func (g *Generator) Services() []struct {
	Addr netmodel.IPv4
	Port uint16
} {
	out := make([]struct {
		Addr netmodel.IPv4
		Port uint16
	}, len(g.servers))
	for i, s := range g.servers {
		out[i].Addr, out[i].Port = s.addr, s.port
	}
	return out
}

// GenerateInterval produces the time-sorted packets of interval i. Every
// interval is generated from its own derived seed, so intervals can be
// produced in any order and the result is fully deterministic.
func (g *Generator) GenerateInterval(i int) ([]netmodel.Packet, error) {
	if i < 0 || i >= g.cfg.Intervals {
		return nil, fmt.Errorf("trace: interval %d out of range [0,%d)", i, g.cfg.Intervals)
	}
	rng := rand.New(rand.NewSource(g.cfg.Seed*1_000_003 + int64(i)))
	start := g.cfg.Start.Add(time.Duration(i) * g.cfg.Interval)
	b := &intervalBuilder{
		g:     g,
		rng:   rng,
		start: start,
		span:  g.cfg.Interval,
	}
	if g.cfg.ZipfSkew > 1 {
		b.zipf = rand.NewZipf(rng, g.cfg.ZipfSkew, 1, zipfClientPool-1)
	}
	b.background(g.backgroundAt(i))
	b.outbound()
	b.p2p()
	for _, a := range g.cfg.Attacks {
		if a.ActiveIn(i) {
			b.attack(a, i)
		}
	}
	sort.Slice(b.pkts, func(x, y int) bool { return b.pkts[x].Timestamp.Before(b.pkts[y].Timestamp) })
	return b.pkts, nil
}

// Stream calls fn for every packet of the trace in order. fn returning an
// error aborts the stream.
func (g *Generator) Stream(fn func(netmodel.Packet) error) error {
	for i := 0; i < g.cfg.Intervals; i++ {
		pkts, err := g.GenerateInterval(i)
		if err != nil {
			return err
		}
		for _, p := range pkts {
			if err := fn(p); err != nil {
				return err
			}
		}
	}
	return nil
}

// intervalBuilder accumulates one interval's packets.
type intervalBuilder struct {
	g     *Generator
	rng   *rand.Rand
	zipf  *rand.Zipf // non-nil when Config.ZipfSkew > 1
	start time.Time
	span  time.Duration
	pkts  []netmodel.Packet
}

// zipfClientPool bounds the skewed client population. Ranks map to a
// stable address per rank, so rank 0 — the Zipf mode — is the same
// elephant client in every interval of every run.
const zipfClientPool = 1 << 13

// zipfClient draws a client address by Zipf rank from the stable pool.
func (b *intervalBuilder) zipfClient() netmodel.IPv4 {
	ip := netmodel.IPv4(0x14000000 + uint32(b.zipf.Uint64())*613)
	if b.g.edge.Contains(ip) {
		ip ^= 0x40000000
	}
	return ip
}

func (b *intervalBuilder) at() time.Time {
	return b.start.Add(time.Duration(b.rng.Int63n(int64(b.span))))
}

// externalIP draws a public-looking address outside the edge network.
func (b *intervalBuilder) externalIP() netmodel.IPv4 {
	for {
		ip := netmodel.IPv4(b.rng.Uint32())
		if !b.g.edge.Contains(ip) && ip>>24 != 0 && ip>>24 != 127 {
			return ip
		}
	}
}

// internalIP draws an address inside the edge network (dark or lit).
func (b *intervalBuilder) internalIP() netmodel.IPv4 {
	return b.g.cfg.InternalPrefix&0xffff0000 | netmodel.IPv4(b.rng.Intn(1<<16))
}

func (b *intervalBuilder) ephemeral() uint16 {
	return uint16(32768 + b.rng.Intn(28000))
}

// emitFlow appends a SYN and, when answered, the SYN/ACK (plus a FIN pair
// for completed flows) of one client→server connection attempt. dirIn
// says the client is external (the SYN travels into the edge).
func (b *intervalBuilder) emitFlow(client, server netmodel.IPv4, sport, dport uint16, answered, completed bool, dirIn bool) {
	b.emitFlowAt(b.at(), client, server, sport, dport, answered, completed, dirIn)
}

// emitFlowAt is emitFlow with a caller-chosen SYN timestamp, for events
// (burst pulses) whose packets must land inside a specific sub-interval
// window rather than anywhere in the interval.
func (b *intervalBuilder) emitFlowAt(ts time.Time, client, server netmodel.IPv4, sport, dport uint16, answered, completed bool, dirIn bool) {
	synDir, ackDir := netmodel.Inbound, netmodel.Outbound
	if !dirIn {
		synDir, ackDir = netmodel.Outbound, netmodel.Inbound
	}
	b.pkts = append(b.pkts, netmodel.Packet{
		Timestamp: ts, SrcIP: client, DstIP: server, SrcPort: sport, DstPort: dport,
		Flags: netmodel.FlagSYN, Dir: synDir, Wire: 40,
	})
	if !answered {
		return
	}
	b.pkts = append(b.pkts, netmodel.Packet{
		Timestamp: ts.Add(2 * time.Millisecond), SrcIP: server, DstIP: client,
		SrcPort: dport, DstPort: sport,
		Flags: netmodel.FlagSYN | netmodel.FlagACK, Dir: ackDir, Wire: 40,
	})
	if completed {
		b.pkts = append(b.pkts, netmodel.Packet{
			Timestamp: ts.Add(800 * time.Millisecond), SrcIP: client, DstIP: server,
			SrcPort: sport, DstPort: dport,
			Flags: netmodel.FlagFIN | netmodel.FlagACK, Dir: synDir, Wire: 40,
		})
		b.pkts = append(b.pkts, netmodel.Packet{
			Timestamp: ts.Add(801 * time.Millisecond), SrcIP: server, DstIP: client,
			SrcPort: dport, DstPort: sport,
			Flags: netmodel.FlagFIN | netmodel.FlagACK, Dir: ackDir, Wire: 40,
		})
	}
}

// backgroundAt returns the diurnally modulated background volume for an
// interval. A full sine cycle spans 1440 intervals (one day of minutes)
// or the whole trace when shorter.
func (g *Generator) backgroundAt(interval int) int {
	base := float64(g.cfg.BackgroundFlows)
	if g.cfg.DiurnalAmplitude == 0 {
		return g.cfg.BackgroundFlows
	}
	period := 1440.0
	if g.cfg.Intervals < 1440 {
		period = float64(g.cfg.Intervals)
	}
	v := base * (1 + g.cfg.DiurnalAmplitude*math.Sin(2*math.Pi*float64(interval)/period))
	if v < 0 {
		v = 0
	}
	return int(v)
}

// background emits benign inbound client→server flows. Under ZipfSkew
// both the client and its chosen service are Zipf-ranked, so the same
// (client, server, port) connections recur across the interval instead
// of every flow being a fresh uniform draw.
func (b *intervalBuilder) background(flows int) {
	if b.zipf != nil {
		for n := 0; n < flows; n++ {
			client := b.zipfClient()
			srv := b.g.servers[int(b.zipf.Uint64())%len(b.g.servers)]
			ok := b.rng.Float64() >= b.g.cfg.FailRate
			b.emitFlow(client, srv.addr, b.ephemeral(), srv.port, ok, ok, true)
		}
		return
	}
	// The uniform path must keep its exact rng draw order (server,
	// failure roll, client, ephemeral port) — every golden trace and
	// seeded detection test is a function of this sequence.
	for n := 0; n < flows; n++ {
		srv := b.g.servers[b.rng.Intn(len(b.g.servers))]
		ok := b.rng.Float64() >= b.g.cfg.FailRate
		b.emitFlow(b.externalIP(), srv.addr, b.ephemeral(), srv.port, ok, ok, true)
	}
}

// outbound emits benign internal-client flows to external servers.
func (b *intervalBuilder) outbound() {
	for n := 0; n < b.g.cfg.OutboundFlows; n++ {
		client := b.g.cfg.InternalPrefix&0xffff0000 | netmodel.IPv4(b.rng.Intn(1<<15))
		ok := b.rng.Float64() >= b.g.cfg.FailRate
		dport := wellKnownPorts[b.rng.Intn(len(wellKnownPorts))]
		b.emitFlow(client, b.externalIP(), b.ephemeral(), dport, ok, ok, false)
	}
}

// p2p emits superspreader-lookalike traffic: few external hosts, many
// distinct internal peers, successful handshakes.
func (b *intervalBuilder) p2p() {
	for h := 0; h < b.g.cfg.P2PHosts; h++ {
		// Stable peer identity across intervals.
		peer := netmodel.IPv4(0x55000000 + uint32(h)*257 + 1)
		for n := 0; n < b.g.cfg.P2PFanout; n++ {
			dst := b.g.cfg.InternalPrefix&0xffff0000 | netmodel.IPv4(0x8000+b.rng.Intn(0x4000))
			b.emitFlow(peer, dst, b.ephemeral(), uint16(6881+b.rng.Intn(8)), true, true, true)
		}
	}
}

// attack emits one interval's worth of an injected event.
func (b *intervalBuilder) attack(a Attack, interval int) {
	switch a.Type {
	case SYNFlood:
		b.flood(a)
	case HorizontalScan:
		b.hscan(a, interval)
	case VerticalScan:
		b.vscan(a, interval)
	case BlockScan:
		b.blockscan(a)
	case FlashCrowd:
		b.flashCrowd(a)
	case Congestion:
		b.congestion(a)
	case Misconfig:
		b.misconfig(a)
	case BurstPulse:
		b.burstPulse(a)
	case StealthScan:
		// Identical mechanics to a horizontal scan; only the rate regime
		// (below threshold, long-lived) and the ground-truth label differ.
		b.hscan(a, interval)
	case Reflection:
		b.reflection(a)
	}
}

func (b *intervalBuilder) flood(a Attack) {
	// Targets > 1 spreads the flood over a small victim cluster
	// (Victim..Victim+Targets−1): per-victim rates can then stay under the
	// detection threshold while the per-source key stays far above it —
	// the stealthy variant Phase 2 exists to unmask.
	for n := 0; n < a.Rate; n++ {
		var src netmodel.IPv4
		if a.Spoofed {
			src = b.externalIP()
		} else {
			src = a.Attackers[b.rng.Intn(len(a.Attackers))]
		}
		dst := a.Victim
		if a.Targets > 1 {
			dst += netmodel.IPv4(n % a.Targets)
		}
		// Round-robin over ports so multi-port floods split evenly.
		dport := a.Ports[n%len(a.Ports)]
		answered := b.rng.Float64() < a.ResponseRate
		b.emitFlow(src, dst, b.ephemeral(), dport, answered, false, true)
	}
}

func (b *intervalBuilder) hscan(a Attack, interval int) {
	// Sweep Targets addresses across the event's lifetime, Rate per
	// interval, wrapping if the sweep finishes early.
	off := (interval - a.StartInterval) * a.Rate
	src := a.Attackers[0]
	for n := 0; n < a.Rate; n++ {
		dst := a.Victim + netmodel.IPv4((off+n)%maxInt(a.Targets, 1))
		answered := b.rng.Float64() < a.ResponseRate
		b.emitFlow(src, dst, b.ephemeral(), a.Ports[0], answered, false, true)
	}
}

func (b *intervalBuilder) vscan(a Attack, interval int) {
	off := (interval - a.StartInterval) * a.Rate
	src := a.Attackers[0]
	for n := 0; n < a.Rate; n++ {
		port := a.Ports[(off+n)%len(a.Ports)]
		answered := b.rng.Float64() < a.ResponseRate
		b.emitFlow(src, a.Victim, b.ephemeral(), port, answered, false, true)
	}
}

func (b *intervalBuilder) blockscan(a Attack) {
	src := a.Attackers[0]
	for n := 0; n < a.Rate; n++ {
		dst := a.Victim + netmodel.IPv4(b.rng.Intn(maxInt(a.Targets, 1)))
		port := a.Ports[b.rng.Intn(len(a.Ports))]
		answered := b.rng.Float64() < a.ResponseRate
		b.emitFlow(src, dst, b.ephemeral(), port, answered, false, true)
	}
}

func (b *intervalBuilder) flashCrowd(a Attack) {
	// Many distinct legitimate clients; handshakes mostly succeed.
	port := uint16(80)
	if len(a.Ports) > 0 {
		port = a.Ports[0]
	}
	for n := 0; n < a.Rate; n++ {
		ok := b.rng.Float64() < a.ResponseRate
		b.emitFlow(b.externalIP(), a.Victim, b.ephemeral(), port, ok, ok, true)
	}
}

func (b *intervalBuilder) congestion(a Attack) {
	// Clients keep trying an active service that has stopped answering.
	for n := 0; n < a.Rate; n++ {
		answered := b.rng.Float64() < a.ResponseRate
		b.emitFlow(b.externalIP(), a.Victim, b.ephemeral(), a.Ports[0], answered, false, true)
	}
}

func (b *intervalBuilder) misconfig(a Attack) {
	// Stale DNS/router entry: clients SYN a dark destination forever. With
	// Attackers set, a single misconfigured client produces the retry
	// storm; Targets > 1 spreads retries over a dead cluster and multiple
	// Ports model proxy-style port fallback — the benign shapes behind the
	// paper's raw scan false positives.
	for n := 0; n < a.Rate; n++ {
		src := b.externalIP()
		if len(a.Attackers) > 0 {
			src = a.Attackers[b.rng.Intn(len(a.Attackers))]
		}
		dst := a.Victim
		if a.Targets > 1 {
			dst += netmodel.IPv4(n % a.Targets)
		}
		b.emitFlow(src, dst, b.ephemeral(), a.Ports[n%len(a.Ports)], false, false, true)
	}
}

func (b *intervalBuilder) burstPulse(a Attack) {
	// Every SYN of the pulse lands inside the attack's burst window
	// instead of spreading over the interval: the per-interval total stays
	// under the EWMA threshold while the instantaneous rate is flood-like.
	width := a.BurstWidth
	if width <= 0 {
		width = b.span / 12
	}
	for n := 0; n < a.Rate; n++ {
		ts := b.start.Add(a.BurstOffset + time.Duration(b.rng.Int63n(int64(width))))
		var src netmodel.IPv4
		if len(a.Attackers) > 0 && !a.Spoofed {
			src = a.Attackers[b.rng.Intn(len(a.Attackers))]
		} else {
			src = b.externalIP()
		}
		answered := b.rng.Float64() < a.ResponseRate
		b.emitFlowAt(ts, src, a.Victim, b.ephemeral(), a.Ports[n%len(a.Ports)], answered, false, true)
	}
}

func (b *intervalBuilder) reflection(a Attack) {
	// Only the reflected leg crosses the edge: unsolicited SYN/ACKs from
	// the pool's service port toward ephemeral ports the victim never
	// opened. The attacker's spoofed SYNs travel reflector-ward and are
	// invisible here, which is exactly why the #SYN−#SYN/ACK structures
	// keyed on inbound SYNs cannot see this attack.
	for n := 0; n < a.Rate; n++ {
		b.pkts = append(b.pkts, netmodel.Packet{
			Timestamp: b.at(), SrcIP: ReflectorIP(n % a.Reflectors), DstIP: a.Victim,
			SrcPort: a.Ports[0], DstPort: b.ephemeral(),
			Flags: netmodel.FlagSYN | netmodel.FlagACK, Dir: netmodel.Inbound, Wire: 40,
		})
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
