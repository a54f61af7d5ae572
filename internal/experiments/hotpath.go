package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"time"

	"github.com/hifind/hifind/internal/core"
	"github.com/hifind/hifind/internal/netmodel"
)

// HotpathBench compares the recorder's two update engines on the same
// event stream: the legacy engine (per-structure hashing, per-SYN replay
// of flow records) against the fused engine (shared key powers, cached
// bucket plans, exact weighted flow updates). Speedups are medians of
// per-window ratios where each window times the two engines back to
// back, so CPU contention hits both sides of every ratio and largely
// cancels; they transfer across machines far better than absolute
// packets/sec — the regression gate (cmd/benchgate) compares speedups,
// never rates.
type HotpathBench struct {
	PacketEvents    int     `json:"packet_events"`
	FlowRecords     int     `json:"flow_records"`
	MeanSYNsPerFlow float64 `json:"mean_syns_per_flow"`
	Cores           int     `json:"cores"`
	GoMaxProcs      int     `json:"gomaxprocs"`

	// Per-packet path: Observe on raw SYN/SYNACK packets.
	LegacyPacketPPS float64 `json:"legacy_pkts_per_sec"`
	FusedPacketPPS  float64 `json:"fused_pkts_per_sec"`
	PacketSpeedup   float64 `json:"packet_speedup"`

	// NetFlow replay path: ObserveFlow on aggregated flow records. The
	// legacy engine replays SYNs one by one (cost ∝ mean SYNs/flow); the
	// fused engine applies one weighted update per record.
	LegacyFlowRPS float64 `json:"legacy_flows_per_sec"`
	FusedFlowRPS  float64 `json:"fused_flows_per_sec"`
	FlowSpeedup   float64 `json:"flow_speedup"`
}

// pipelinePackets pre-generates the measurement traffic: mostly inbound
// SYNs over spread keys with a periodic SYN/ACK, the recorder's
// worst-case (every packet updates all nine structures or the Bloom
// filter).
func pipelinePackets(n int) []netmodel.Packet {
	pkts := make([]netmodel.Packet, n)
	for i := range pkts {
		h := uint32(i) * 2654435761
		p := netmodel.Packet{
			SrcIP:   netmodel.IPv4(h),
			DstIP:   netmodel.IPv4(0x81690000 | h>>24),
			SrcPort: uint16(40000 + i%1000),
			DstPort: uint16(1 + h%1024),
			Flags:   netmodel.FlagSYN,
			Dir:     netmodel.Inbound,
		}
		if i%16 == 0 {
			p.SrcIP, p.DstIP = p.DstIP, p.SrcIP
			p.SrcPort, p.DstPort = p.DstPort, p.SrcPort
			p.Flags = netmodel.FlagSYN | netmodel.FlagACK
			p.Dir = netmodel.Outbound
		}
		pkts[i] = p
	}
	return pkts
}

// hotpathFlows pre-generates NetFlow-style records as a collector would
// export them during mixed traffic: mostly small benign flows with a
// heavy tail of flood-aggregated records, plus a periodic outbound
// SYN/ACK record. The SYN-count mix sets the legacy engine's replay
// cost; the fused engine's cost is one weighted update regardless.
func hotpathFlows(n int) ([]netmodel.FlowRecord, float64) {
	// Deterministic cycle, mean ≈ 77 SYNs per record — the shape
	// of a collector batch during a flood (paper §5.5: DoS traffic
	// dominates record volume precisely when resilience matters).
	counts := []int{1, 2, 3, 8, 40, 120, 400}
	recs := make([]netmodel.FlowRecord, n)
	totalSYNs := 0
	for i := range recs {
		h := uint32(i) * 2654435761
		r := netmodel.FlowRecord{
			SrcIP:   netmodel.IPv4(h),
			DstIP:   netmodel.IPv4(0x81690000 | h>>24),
			SrcPort: uint16(40000 + i%1000),
			DstPort: uint16(1 + h%1024),
			Dir:     netmodel.Inbound,
			SYNs:    counts[i%len(counts)],
		}
		if i%16 == 0 {
			r.SrcIP, r.DstIP = r.DstIP, r.SrcIP
			r.SrcPort, r.DstPort = r.DstPort, r.SrcPort
			r.Dir = netmodel.Outbound
			r.SYNs = 0
			r.SYNACKs = 3
		}
		totalSYNs += r.SYNs
		recs[i] = r
	}
	return recs, float64(totalSYNs) / float64(n)
}

// HotpathThroughput measures both engines over identical packet and flow
// streams and cross-checks that they produced byte-identical sketch
// state — the differential harness doubling as the benchmark's sanity
// anchor.
func HotpathThroughput(packetEvents, flowRecords int) (HotpathBench, error) {
	pkts := pipelinePackets(packetEvents)
	flows, meanSYNs := hotpathFlows(flowRecords)
	bench := HotpathBench{
		PacketEvents:    packetEvents,
		FlowRecords:     flowRecords,
		MeanSYNsPerFlow: meanSYNs,
		Cores:           runtime.NumCPU(),
		GoMaxProcs:      runtime.GOMAXPROCS(0),
	}

	legacy, err := core.NewRecorder(core.TestRecorderConfig(detectorSeed))
	if err != nil {
		return HotpathBench{}, err
	}
	legacy.SetEngine(core.EngineLegacy)
	fused, err := core.NewRecorder(core.TestRecorderConfig(detectorSeed))
	if err != nil {
		return HotpathBench{}, err
	}

	// Shared-machine CPU contention comes in windows of seconds, so two
	// rates timed minutes apart do not divide into a reproducible
	// speedup. Every window here therefore times legacy then fused on
	// the SAME slice of events back to back — contention degrades both
	// sides of a ratio together — and the reported speedup is the median
	// over windows, which drops the windows a noise burst split in half.
	// Both anchor recorders see every timed event exactly once, keeping
	// the streams identical for the byte-identity check; only the fused
	// flow path adds extra passes on a throwaway recorder, because one
	// fused pass over a window is too short to time on its own.
	const pktWindows = 4
	const flowWindows = 8
	const fusedFlowPasses = 32

	var pktPairs, flowPairs []ratePair
	step := packetEvents / pktWindows
	for w := 0; w < pktWindows; w++ {
		lo, hi := w*step, (w+1)*step
		if w == pktWindows-1 {
			hi = packetEvents
		}
		var p ratePair
		start := time.Now()
		for j := lo; j < hi; j++ {
			legacy.Observe(pkts[j])
		}
		p.legacy = float64(hi-lo) / time.Since(start).Seconds()
		start = time.Now()
		for j := lo; j < hi; j++ {
			fused.Observe(pkts[j])
		}
		p.fused = float64(hi-lo) / time.Since(start).Seconds()
		pktPairs = append(pktPairs, p)
	}

	timing, err := core.NewRecorder(core.TestRecorderConfig(detectorSeed))
	if err != nil {
		return HotpathBench{}, err
	}
	step = flowRecords / flowWindows
	for w := 0; w < flowWindows; w++ {
		lo, hi := w*step, (w+1)*step
		if w == flowWindows-1 {
			hi = flowRecords
		}
		var p ratePair
		start := time.Now()
		for j := lo; j < hi; j++ {
			legacy.ObserveFlow(flows[j])
		}
		p.legacy = float64(hi-lo) / time.Since(start).Seconds()
		start = time.Now()
		for pass := 0; pass < fusedFlowPasses; pass++ {
			for j := lo; j < hi; j++ {
				timing.ObserveFlow(flows[j])
			}
		}
		p.fused = float64(fusedFlowPasses*(hi-lo)) / time.Since(start).Seconds()
		flowPairs = append(flowPairs, p)
		for j := lo; j < hi; j++ {
			fused.ObserveFlow(flows[j])
		}
	}

	lb, err := legacy.MarshalBinary()
	if err != nil {
		return HotpathBench{}, err
	}
	fb, err := fused.MarshalBinary()
	if err != nil {
		return HotpathBench{}, err
	}
	if !bytes.Equal(lb, fb) {
		return HotpathBench{}, fmt.Errorf("experiments: engines diverged on the benchmark stream")
	}

	bench.LegacyPacketPPS, bench.FusedPacketPPS, bench.PacketSpeedup = summarize(pktPairs)
	bench.LegacyFlowRPS, bench.FusedFlowRPS, bench.FlowSpeedup = summarize(flowPairs)
	return bench, nil
}

// ratePair is one window's back-to-back measurement of both engines.
type ratePair struct{ legacy, fused float64 }

// summarize reduces paired windows to median rates and the median
// per-window speedup (the gated number — a ratio of same-window rates,
// not of the two medians).
func summarize(pairs []ratePair) (legacy, fused, speedup float64) {
	median := func(xs []float64) float64 {
		sort.Float64s(xs)
		n := len(xs)
		if n%2 == 1 {
			return xs[n/2]
		}
		return (xs[n/2-1] + xs[n/2]) / 2
	}
	ls := make([]float64, len(pairs))
	fs := make([]float64, len(pairs))
	rs := make([]float64, len(pairs))
	for i, p := range pairs {
		ls[i], fs[i], rs[i] = p.legacy, p.fused, p.fused/p.legacy
	}
	return median(ls), median(fs), median(rs)
}

// FormatHotpath renders the engine comparison.
func FormatHotpath(b HotpathBench) string {
	s := fmt.Sprintf("fused vs legacy update engine (%d packets, %d flow records, mean %.1f SYNs/flow,\n%d cores, GOMAXPROCS %d; engines verified byte-identical):\n",
		b.PacketEvents, b.FlowRecords, b.MeanSYNsPerFlow, b.Cores, b.GoMaxProcs)
	s += fmt.Sprintf("  per-packet Observe:  legacy %8.2fM pkts/sec   fused %8.2fM pkts/sec   (%.2fx)\n",
		b.LegacyPacketPPS/1e6, b.FusedPacketPPS/1e6, b.PacketSpeedup)
	s += fmt.Sprintf("  NetFlow ObserveFlow: legacy %8.2fK recs/sec   fused %8.2fK recs/sec   (%.2fx)\n",
		b.LegacyFlowRPS/1e3, b.FusedFlowRPS/1e3, b.FlowSpeedup)
	return s
}
