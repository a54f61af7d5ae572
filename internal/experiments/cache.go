package experiments

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"github.com/hifind/hifind/internal/core"
	"github.com/hifind/hifind/internal/netmodel"
)

// CacheBench compares the recorder with and without the exact
// flow-aggregation cache on Zipf-skewed traffic — the elephant/mice
// regime real edge links exhibit, where a handful of hot connections
// dominate the packet stream. A cache hit replaces the full multi-sketch
// fan-out with one table probe, so the speedup grows with skew; the
// differential anchor (StateIdentical) proves the shortcut changed
// nothing: after the rotation flush both recorders marshal to the same
// bytes. Speedups are medians of per-window ratios where each window
// times the two recorders back to back, so CPU contention hits both
// sides of every ratio and largely cancels; they transfer across
// machines far better than absolute packets/sec — the regression gate
// (cmd/benchgate) compares speedups, never rates.
type CacheBench struct {
	PacketEvents int     `json:"packet_events"`
	FlowRecords  int     `json:"flow_records"`
	ZipfSkew     float64 `json:"zipf_skew"`
	CacheEntries int     `json:"cache_entries"`
	Cores        int     `json:"cores"`
	GoMaxProcs   int     `json:"gomaxprocs"`

	// HitRatio is the cached recorder's probe hit fraction over the
	// whole run; StateIdentical records the byte-identity cross-check.
	HitRatio       float64 `json:"hit_ratio"`
	StateIdentical bool    `json:"state_identical"`

	// Per-packet path: Observe on raw SYN/SYNACK packets.
	UncachedPacketPPS float64 `json:"uncached_pkts_per_sec"`
	CachedPacketPPS   float64 `json:"cached_pkts_per_sec"`
	PacketSpeedup     float64 `json:"packet_speedup"`

	// NetFlow replay path: ObserveFlow on aggregated flow records.
	UncachedFlowRPS float64 `json:"uncached_flows_per_sec"`
	CachedFlowRPS   float64 `json:"cached_flows_per_sec"`
	FlowSpeedup     float64 `json:"flow_speedup"`
}

// zipfEvents pre-generates the skewed measurement traffic: clients and
// servers drawn by Zipf rank from stable pools, so the same
// (sip, dip, dport) connections recur constantly, with a periodic
// outbound SYN/ACK reply keeping both cache accumulators in play.
func zipfEvents(n int, skew float64) ([]netmodel.Packet, []netmodel.FlowRecord) {
	rng := rand.New(rand.NewSource(detectorSeed))
	zipf := rand.NewZipf(rng, skew, 1, 1<<14)
	pkts := make([]netmodel.Packet, n)
	flows := make([]netmodel.FlowRecord, n)
	for i := range pkts {
		src := netmodel.IPv4(0x14000000 + uint32(zipf.Uint64())*613)
		dst := netmodel.IPv4(0x81690000 + uint32(zipf.Uint64()&0x3f))
		dport := uint16(1 + zipf.Uint64()&0xf)
		p := netmodel.Packet{
			SrcIP: src, DstIP: dst,
			SrcPort: uint16(40000 + i%1000), DstPort: dport,
			Flags: netmodel.FlagSYN, Dir: netmodel.Inbound,
		}
		f := netmodel.FlowRecord{
			SrcIP: src, DstIP: dst,
			SrcPort: p.SrcPort, DstPort: dport,
			Dir: netmodel.Inbound, SYNs: 1 + i%3,
		}
		if i%16 == 0 {
			p.SrcIP, p.DstIP = p.DstIP, p.SrcIP
			p.SrcPort, p.DstPort = p.DstPort, p.SrcPort
			p.Flags = netmodel.FlagSYN | netmodel.FlagACK
			p.Dir = netmodel.Outbound
			f.SrcIP, f.DstIP = f.DstIP, f.SrcIP
			f.SrcPort, f.DstPort = f.DstPort, f.SrcPort
			f.Dir = netmodel.Outbound
			f.SYNs, f.SYNACKs = 0, 2
		}
		pkts[i] = p
		flows[i] = f
	}
	return pkts, flows
}

// CacheThroughput measures the cached and cache-less recorders over
// identical Zipf-skewed packet and flow streams and cross-checks that
// they produced byte-identical sketch state after the rotation flush.
func CacheThroughput(packetEvents, flowRecords, entries int, skew float64) (CacheBench, error) {
	pkts, _ := zipfEvents(packetEvents, skew)
	_, flows := zipfEvents(flowRecords, skew)
	bench := CacheBench{
		PacketEvents: packetEvents,
		FlowRecords:  flowRecords,
		ZipfSkew:     skew,
		CacheEntries: entries,
		Cores:        runtime.NumCPU(),
		GoMaxProcs:   runtime.GOMAXPROCS(0),
	}

	plain, err := core.NewRecorder(core.TestRecorderConfig(detectorSeed))
	if err != nil {
		return CacheBench{}, err
	}
	ccfg := core.TestRecorderConfig(detectorSeed)
	ccfg.FlowCache = entries
	cached, err := core.NewRecorder(ccfg)
	if err != nil {
		return CacheBench{}, err
	}

	// Shared-machine CPU contention comes in windows of seconds, so two
	// rates timed minutes apart do not divide into a reproducible
	// speedup. Every window therefore times the cache-less recorder then
	// the cached one on the SAME slice of events back to back —
	// contention degrades both sides of a ratio together — and the gated
	// number is the median of per-window ratios, which drops the windows
	// a noise burst split in half. Both anchors see every event exactly
	// once, keeping the streams identical for the byte-identity check.
	const pktWindows = 8
	const flowWindows = 8

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
			plain.Observe(pkts[j])
		}
		p.uncached = float64(hi-lo) / time.Since(start).Seconds()
		start = time.Now()
		for j := lo; j < hi; j++ {
			cached.Observe(pkts[j])
		}
		p.cached = float64(hi-lo) / time.Since(start).Seconds()
		pktPairs = append(pktPairs, p)
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
			plain.ObserveFlow(flows[j])
		}
		p.uncached = float64(hi-lo) / time.Since(start).Seconds()
		start = time.Now()
		for j := lo; j < hi; j++ {
			cached.ObserveFlow(flows[j])
		}
		p.cached = float64(hi-lo) / time.Since(start).Seconds()
		flowPairs = append(flowPairs, p)
	}

	st := cached.CacheStats()
	if probes := st.Hits + st.Misses; probes > 0 {
		bench.HitRatio = float64(st.Hits) / float64(probes)
	}

	// MarshalBinary drains the cache, so this is both the rotation-time
	// flush and the differential anchor.
	pb, err := plain.MarshalBinary()
	if err != nil {
		return CacheBench{}, err
	}
	cb, err := cached.MarshalBinary()
	if err != nil {
		return CacheBench{}, err
	}
	bench.StateIdentical = bytes.Equal(pb, cb) && plain.Packets() == cached.Packets()
	if !bench.StateIdentical {
		return CacheBench{}, fmt.Errorf("experiments: cached recorder diverged on the benchmark stream")
	}

	bench.UncachedPacketPPS, bench.CachedPacketPPS, bench.PacketSpeedup = summarize(pktPairs)
	bench.UncachedFlowRPS, bench.CachedFlowRPS, bench.FlowSpeedup = summarize(flowPairs)
	return bench, nil
}

// ratePair is one window's back-to-back measurement of both recorders.
type ratePair struct{ uncached, cached float64 }

// summarize reduces paired windows to median rates and the median
// per-window speedup (the gated number — a ratio of same-window rates,
// not of the two medians).
func summarize(pairs []ratePair) (uncached, cached, speedup float64) {
	median := func(xs []float64) float64 {
		sort.Float64s(xs)
		n := len(xs)
		if n%2 == 1 {
			return xs[n/2]
		}
		return (xs[n/2-1] + xs[n/2]) / 2
	}
	us := make([]float64, len(pairs))
	cs := make([]float64, len(pairs))
	rs := make([]float64, len(pairs))
	for i, p := range pairs {
		us[i], cs[i], rs[i] = p.uncached, p.cached, p.cached/p.uncached
	}
	return median(us), median(cs), median(rs)
}

// FormatCache renders the cache comparison.
func FormatCache(b CacheBench) string {
	s := fmt.Sprintf("flow cache vs cache-less recorder (%d packets, %d flow records, Zipf skew %.2f,\n%d-entry cache, %.1f%% hit ratio, %d cores, GOMAXPROCS %d; state verified byte-identical):\n",
		b.PacketEvents, b.FlowRecords, b.ZipfSkew, b.CacheEntries, 100*b.HitRatio, b.Cores, b.GoMaxProcs)
	s += fmt.Sprintf("  per-packet Observe:  uncached %8.2fM pkts/sec   cached %8.2fM pkts/sec   (%.2fx)\n",
		b.UncachedPacketPPS/1e6, b.CachedPacketPPS/1e6, b.PacketSpeedup)
	s += fmt.Sprintf("  NetFlow ObserveFlow: uncached %8.2fK recs/sec   cached %8.2fK recs/sec   (%.2fx)\n",
		b.UncachedFlowRPS/1e3, b.CachedFlowRPS/1e3, b.FlowSpeedup)
	return s
}
