package hifind_test

// One benchmark per table and figure of the paper's evaluation (DESIGN.md
// §5 maps each to its experiment), plus micro-benchmarks of the hot-path
// primitives. Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// The table benches report key findings via b.ReportMetric so the bench
// output doubles as a results summary; cmd/benchtables prints the full
// paper-layout tables.

import (
	"math/rand"
	"net/netip"
	"testing"

	hifind "github.com/hifind/hifind"
	"github.com/hifind/hifind/internal/baseline/pcf"
	"github.com/hifind/hifind/internal/core"
	"github.com/hifind/hifind/internal/experiments"
	"github.com/hifind/hifind/internal/netflow"
	"github.com/hifind/hifind/internal/netmodel"
	"github.com/hifind/hifind/internal/revsketch"
	"github.com/hifind/hifind/internal/sketch"
	"github.com/hifind/hifind/internal/sketch2d"
	"github.com/hifind/hifind/internal/telemetry"
	"github.com/hifind/hifind/internal/timeseries"
	"github.com/hifind/hifind/internal/trace"
)

// ---------- table and figure reproductions ----------

func BenchmarkTable1Functionality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
		detected := 0
		for _, r := range rows {
			if r.HiFIND {
				detected++
			}
		}
		b.ReportMetric(float64(detected), "hifind-scenarios-detected")
	}
}

func BenchmarkFigure4Bimodal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h, err := experiments.Figure4(experiments.QuickScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(h.Counts)), "bins")
	}
}

func BenchmarkTable4Phases(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := experiments.Table4(experiments.QuickScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(d.NU.Raw.Flood), "nu-flood-raw")
		b.ReportMetric(float64(d.NU.Final.Flood), "nu-flood-final")
		b.ReportMetric(float64(d.NUOutcome.FalsePositives), "nu-final-fp")
	}
}

func BenchmarkTable5TRW(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table5(experiments.QuickScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[0].Overlap), "nu-overlap")
	}
}

func BenchmarkTable6CPM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table6(experiments.QuickScale())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Trace == "LBL" {
				b.ReportMetric(float64(r.CPM), "lbl-cpm-false-alarms")
				b.ReportMetric(float64(r.HiFIND), "lbl-hifind-floods")
			}
		}
	}
}

func BenchmarkTable78Rankings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		top, bottom, err := experiments.Table78(experiments.QuickScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(top)+len(bottom)), "ranked-rows")
	}
}

func BenchmarkMultiRouter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.MultiRouter(experiments.QuickScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.MissingFromAgg), "alerts-lost-by-aggregation")
	}
}

func BenchmarkValidationBackscatter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run, err := experiments.RunAll(experiments.NUTrace(experiments.QuickScale()))
		if err != nil {
			b.Fatal(err)
		}
		v := experiments.Validation(run)
		b.ReportMetric(float64(v.BackscatterMatched), "floods-validated")
	}
}

func BenchmarkTable9Memory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := experiments.Table9(100_000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(d.MeasuredSketch)/(1<<20), "sketch-MB")
		b.ReportMetric(float64(d.MeasuredFlowTable)/(1<<20), "flowtable-MB")
	}
}

func BenchmarkMemoryAccesses(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.MemoryAccesses()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.TotalPerSYN), "writes-per-syn")
	}
}

// BenchmarkRSInsert is the paper's §5.5.3 software recording measurement:
// insertions/sec into a 48-bit reversible sketch (paper: 11M/sec).
func BenchmarkRSInsert(b *testing.B) {
	rs, err := revsketch.New(revsketch.Params48(), 3)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	keys := make([]uint64, 4096)
	for i := range keys {
		keys[i] = rng.Uint64() & (1<<48 - 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs.Update(keys[i&4095], 1)
	}
}

// BenchmarkDetectionInterval measures one full detection round (paper:
// 0.34s mean on NU data).
func BenchmarkDetectionInterval(b *testing.B) {
	cfg := experiments.NUTrace(experiments.QuickScale())
	gen, err := trace.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	det, err := core.NewDetector(core.TestRecorderConfig(1), core.DetectorConfig{Threshold: 60})
	if err != nil {
		b.Fatal(err)
	}
	pkts, err := gen.GenerateInterval(5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pkts {
			det.Observe(p)
		}
		if _, err := det.EndInterval(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStress60x(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lat, err := experiments.Stress60x(experiments.QuickScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lat.MaxSec*1000, "max-detect-ms")
	}
}

// BenchmarkDoSResilience measures recording under the §3.5 worst case —
// every packet a new spoofed source — confirming per-packet cost does not
// depend on flow count.
func BenchmarkDoSResilience(b *testing.B) {
	rec, err := core.NewRecorder(core.PaperRecorderConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	victim := netmodel.MustParseIPv4("129.105.1.1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Observe(netmodel.Packet{
			SrcIP: netmodel.IPv4(rng.Uint32()), DstIP: victim,
			SrcPort: uint16(i), DstPort: 80,
			Flags: netmodel.FlagSYN, Dir: netmodel.Inbound,
		})
	}
	b.StopTimer()
	if rec.MemoryBytes() != 13828096 {
		b.Fatalf("memory moved under flood: %d", rec.MemoryBytes())
	}
}

// ---------- ablation benches (DESIGN.md §7) ----------

func BenchmarkAblationEWMA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.AblationEWMA(experiments.QuickScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(points[1].TruePositives), "tp-alpha-0.5")
	}
}

func BenchmarkAblationVerifier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.AblationVerifier(experiments.QuickScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(points[1].FalsePositives-points[0].FalsePositives), "fp-added-without-verifier")
	}
}

func BenchmarkAblationStages(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.AblationStages(experiments.QuickScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(points[1].TruePositives), "tp-H6")
	}
}

func BenchmarkAblationPhi(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.AblationPhi(experiments.QuickScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(points[1].FalsePositives), "fp-phi-0.8")
	}
}

func BenchmarkAblationModularVsDirect(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := experiments.AblationModularVsDirect(1_000_000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(m.RevInsertsPerSec/1e6, "rev-Minserts/s")
	}
}

// ---------- hot-path micro-benchmarks ----------

func BenchmarkKarySketchUpdate(b *testing.B) {
	s, err := sketch.New(sketch.Params{Stages: 6, Buckets: 1 << 14}, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(uint64(i)*2654435761, 1)
	}
}

func BenchmarkKarySketchEstimate(b *testing.B) {
	s, err := sketch.New(sketch.Params{Stages: 6, Buckets: 1 << 14}, 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100000; i++ {
		s.Update(uint64(i), 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Estimate(uint64(i % 100000))
	}
}

func Benchmark2DSketchUpdate(b *testing.B) {
	s, err := sketch2d.New(sketch2d.PaperParams(), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(uint64(i)*2654435761, uint64(i)&0xffff, 1)
	}
}

func BenchmarkRSInference(b *testing.B) {
	rs, err := revsketch.New(revsketch.Params48(), 2)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50000; i++ {
		rs.Update(rng.Uint64()&(1<<48-1), 1)
	}
	for i := 0; i < 20; i++ {
		rs.Update(rng.Uint64()&(1<<48-1), 500)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keys, err := rs.InferenceCounts(250, revsketch.InferenceOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(keys) == 0 {
			b.Fatal("inference found nothing")
		}
	}
}

func BenchmarkEWMAObserve(b *testing.B) {
	e, err := timeseries.NewEWMA(0.5, 6, 1<<14)
	if err != nil {
		b.Fatal(err)
	}
	counts := make([][]int32, 6)
	for i := range counts {
		counts[i] = make([]int32, 1<<14)
		for j := range counts[i] {
			counts[i][j] = int32(j & 15)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Observe(counts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecorderObserve(b *testing.B) {
	rec, err := core.NewRecorder(core.PaperRecorderConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	pkt := netmodel.Packet{
		SrcIP: 0x08080808, DstIP: 0x81690101, SrcPort: 40000, DstPort: 80,
		Flags: netmodel.FlagSYN, Dir: netmodel.Inbound,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt.SrcIP = netmodel.IPv4(i)
		rec.Observe(pkt)
	}
}

func BenchmarkRecorderMarshal(b *testing.B) {
	rec, err := core.NewRecorder(core.TestRecorderConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rec.MarshalBinary(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRecorderTraffic feeds one interval of handshakes and unanswered
// SYNs into a paper-geometry Recorder.
func benchRecorderTraffic(b *testing.B, r *hifind.Recorder, router int) {
	b.Helper()
	server := netip.MustParseAddr("129.105.1.1")
	for i := 0; i < 2000; i++ {
		client := netip.AddrFrom4([4]byte{20, byte(router), byte(i >> 8), byte(i)})
		sport := uint16(30000 + i)
		r.Observe(hifind.Packet{SrcIP: client, DstIP: server, SrcPort: sport, DstPort: 80,
			SYN: true, Dir: hifind.Inbound})
		if i%4 != 0 {
			r.Observe(hifind.Packet{SrcIP: server, DstIP: client, SrcPort: 80, DstPort: sport,
				SYN: true, ACK: true, Dir: hifind.Outbound})
		}
	}
}

// BenchmarkEndIntervalMerged measures the aggregation site's interval
// close at paper geometry: "plain" is EndInterval alone, "merged" is
// EndIntervalMerged with two remote Recorder states. (merged − plain)/2
// is the per-contributor merge cost, to be compared with one
// BenchmarkStateSnapshot — the contributor's own serialization.
func BenchmarkEndIntervalMerged(b *testing.B) {
	states := make([][]byte, 2)
	for i := range states {
		r, err := hifind.NewRecorder()
		if err != nil {
			b.Fatal(err)
		}
		benchRecorderTraffic(b, r, i)
		if states[i], err = r.StateSnapshot(); err != nil {
			b.Fatal(err)
		}
	}
	for _, bc := range []struct {
		name   string
		states [][]byte
	}{{"plain", nil}, {"merged", states}} {
		b.Run(bc.name, func(b *testing.B) {
			d, err := hifind.New()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bc.states == nil {
					_, err = d.EndInterval()
				} else {
					_, err = d.EndIntervalMerged(bc.states...)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStateSnapshot measures one contributor's per-interval
// serialization at paper geometry.
func BenchmarkStateSnapshot(b *testing.B) {
	r, err := hifind.NewRecorder()
	if err != nil {
		b.Fatal(err)
	}
	benchRecorderTraffic(b, r, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.StateSnapshot(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------- extension micro-benchmarks ----------

func BenchmarkNetFlowDecode(b *testing.B) {
	recs := make([]netflow.Record, 30)
	for i := range recs {
		recs[i] = netflow.Record{
			SrcAddr: netmodel.IPv4(i), DstAddr: 0x81690101,
			SrcPort: uint16(1000 + i), DstPort: 80, Packets: 3, Octets: 120,
			TCPFlags: 0x02, Protocol: 6,
		}
	}
	pkt, err := netflow.Marshal(netflow.Header{}, recs)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(pkt)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := netflow.Unmarshal(pkt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPCFObserve(b *testing.B) {
	d, err := pcf.New(pcf.DefaultConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	pkt := netmodel.Packet{SrcIP: 1, DstIP: 2, DstPort: 80,
		Flags: netmodel.FlagSYN, Dir: netmodel.Inbound}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt.SrcIP = netmodel.IPv4(i)
		d.Observe(pkt)
	}
}

func BenchmarkCheckpointRoundTrip(b *testing.B) {
	det, err := core.NewDetector(core.TestRecorderConfig(1), core.DetectorConfig{Threshold: 60})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := det.EndInterval(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		state, err := det.MarshalState()
		if err != nil {
			b.Fatal(err)
		}
		if err := det.RestoreState(state); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObserveInstrumented measures the facade's per-packet cost
// with a live telemetry registry side by side with the bare detector.
// The instrumented delta is one nil-check-guarded atomic increment per
// packet; TestInstrumentedObserveAllocFree pins the allocation count at
// zero.
func BenchmarkObserveInstrumented(b *testing.B) {
	src := netip.MustParseAddr("8.8.8.8")
	dst := netip.MustParseAddr("129.105.1.1")
	for _, instrumented := range []bool{false, true} {
		name := "uninstrumented"
		opts := []hifind.Option{hifind.WithCompactSketches()}
		if instrumented {
			name = "instrumented"
			opts = append(opts, hifind.WithTelemetry(telemetry.NewRegistry()))
		}
		b.Run(name, func(b *testing.B) {
			det, err := hifind.New(opts...)
			if err != nil {
				b.Fatal(err)
			}
			pkt := hifind.Packet{
				SrcIP: src, DstIP: dst, SrcPort: 40000, DstPort: 80,
				SYN: true, Dir: hifind.Inbound,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pkt.SrcPort = uint16(i)
				det.Observe(pkt)
			}
		})
	}
}
