package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/hifind/hifind/internal/baseline/flowtable"
	"github.com/hifind/hifind/internal/baseline/trw"
	"github.com/hifind/hifind/internal/core"
	"github.com/hifind/hifind/internal/evalx"
	"github.com/hifind/hifind/internal/netmodel"
	"github.com/hifind/hifind/internal/revsketch"
	"github.com/hifind/hifind/internal/trace"
)

// ---------- §5.5.1/Table 9 measured point ----------

// MeasuredMemory holds bytes observed after streaming a worst-case spoofed
// stream through each method's real implementation.
type MeasuredMemory struct {
	Sketch, FlowTable, TRW int
}

// Table9Measured streams n worst-case packets (40-byte all-SYN, a fresh
// spoofed source per packet) through HiFIND's recorder, the exact flow
// table and TRW, and reports each method's memory afterwards.
func Table9Measured(n int) (MeasuredMemory, error) {
	rec, err := core.NewRecorder(core.PaperRecorderConfig(1))
	if err != nil {
		return MeasuredMemory{}, err
	}
	ft := flowtable.New()
	td, err := trw.New(trw.DefaultConfig())
	if err != nil {
		return MeasuredMemory{}, err
	}
	rng := rand.New(rand.NewSource(9))
	victim := netmodel.MustParseIPv4("129.105.1.1")
	for i := 0; i < n; i++ {
		pkt := netmodel.Packet{
			SrcIP: netmodel.IPv4(rng.Uint32()), DstIP: victim,
			SrcPort: uint16(rng.Intn(65536)), DstPort: 80,
			Flags: netmodel.FlagSYN, Dir: netmodel.Inbound, Wire: 40,
		}
		rec.Observe(pkt)
		ft.Observe(pkt)
		td.Observe(pkt)
	}
	return MeasuredMemory{
		Sketch:    rec.MemoryBytes(),
		FlowTable: ft.MemoryBytes(),
		TRW:       td.MemoryBytes(),
	}, nil
}

// ---------- §5.5.2: memory accesses per packet ----------

// AccessReport breaks down counter writes per SYN packet by structure.
type AccessReport struct {
	PerRS48, PerRS64, PerVerifier, PerOS, Per2D int
	TotalPerSYN                                 int
}

// MemoryAccesses reports the per-packet access budget of the paper
// configuration and cross-checks it against the recorder's own counters.
func MemoryAccesses() (AccessReport, error) {
	cfg := core.PaperRecorderConfig(1)
	rec, err := core.NewRecorder(cfg)
	if err != nil {
		return AccessReport{}, err
	}
	rec.Observe(netmodel.Packet{
		SrcIP: 1, DstIP: 2, DstPort: 80, Flags: netmodel.FlagSYN, Dir: netmodel.Inbound,
	})
	rep := AccessReport{
		PerRS48:     cfg.RS48.Stages,
		PerRS64:     cfg.RS64.Stages,
		PerVerifier: cfg.Verifier.Stages,
		PerOS:       cfg.Original.Stages,
		Per2D:       cfg.TwoD.Stages,
		TotalPerSYN: int(rec.MemoryAccesses()),
	}
	return rep, nil
}

// FormatAccesses renders the report next to the paper's numbers.
func FormatAccesses(r AccessReport) string {
	return fmt.Sprintf(
		"counter writes per SYN packet (paper §5.5.2 reports 15–16 per reversible sketch pair\n"+
			"including hashing-stage accesses, and 5 per 2D sketch):\n"+
			"  per 48-bit RS: %d   per 64-bit RS: %d   per verifier: %d   per OS: %d   per 2D: %d\n"+
			"  total across all structures: %d (constant, independent of flow count)\n",
		r.PerRS48, r.PerRS64, r.PerVerifier, r.PerOS, r.Per2D, r.TotalPerSYN)
}

// ---------- §5.5.3: throughput and detection latency ----------

// ThroughputReport holds the software recording-speed measurement.
type ThroughputReport struct {
	Insertions       int
	Elapsed          time.Duration
	InsertionsPerSec float64
	// WorstCaseGbps translates the insertion rate to link speed for
	// all-40-byte packets, the paper's metric.
	WorstCaseGbps float64
}

// Throughput measures reversible-sketch insertion rate with the paper's
// 48-bit geometry (the paper reports 11M insertions/sec ≈ 3.7 Gbps
// worst-case in software).
func Throughput(insertions int) (ThroughputReport, error) {
	rs, err := revsketch.New(revsketch.Params48(), 3)
	if err != nil {
		return ThroughputReport{}, err
	}
	rng := rand.New(rand.NewSource(5))
	keys := make([]uint64, 4096)
	for i := range keys {
		keys[i] = rng.Uint64() & (1<<48 - 1)
	}
	start := time.Now()
	for i := 0; i < insertions; i++ {
		rs.Update(keys[i&4095], 1)
	}
	elapsed := time.Since(start)
	rate := float64(insertions) / elapsed.Seconds()
	return ThroughputReport{
		Insertions:       insertions,
		Elapsed:          elapsed,
		InsertionsPerSec: rate,
		WorstCaseGbps:    rate * 40 * 8 / 1e9,
	}, nil
}

// DetectionLatency summarizes per-interval detection times over a trace
// (paper: 0.34 s mean, 0.64 s std, 12.91 s max on the NU data).
type DetectionLatency struct {
	Intervals       int
	MeanSec, StdSec float64
	MaxSec          float64
}

// DetectionTime runs HiFIND over the NU trace and summarizes analysis
// wall time per interval.
func DetectionTime(s Scale) (DetectionLatency, error) {
	rcfg, dcfg := hiFINDConfig()
	results, _, err := RunHiFIND(NUTrace(s), rcfg, dcfg)
	if err != nil {
		return DetectionLatency{}, err
	}
	var sum, sumSq, maxV float64
	for _, r := range results {
		v := r.DetectionSeconds
		sum += v
		sumSq += v * v
		if v > maxV {
			maxV = v
		}
	}
	n := float64(len(results))
	mean := sum / n
	return DetectionLatency{
		Intervals: len(results),
		MeanSec:   mean,
		StdSec:    math.Sqrt(maxFloat(sumSq/n-mean*mean, 0)),
		MaxSec:    maxV,
	}, nil
}

// Stress60x reproduces the paper's stress experiment: compress the trace
// by feeding many intervals' traffic into one detection interval and
// recover only the top-100 anomalies.
func Stress60x(s Scale) (DetectionLatency, error) {
	cfg := NUTrace(s)
	gen, err := trace.New(cfg)
	if err != nil {
		return DetectionLatency{}, err
	}
	rcfg, _ := hiFINDConfig()
	det, err := core.NewDetector(rcfg, core.DetectorConfig{Threshold: 60, MaxKeysPerStep: 100})
	if err != nil {
		return DetectionLatency{}, err
	}
	// All intervals squeezed into two detection intervals (the first
	// seeds the forecast).
	var lat DetectionLatency
	half := cfg.Intervals / 2
	for block := 0; block < 2; block++ {
		lo, hi := block*half, (block+1)*half
		for i := lo; i < hi; i++ {
			pkts, err := gen.GenerateInterval(i)
			if err != nil {
				return DetectionLatency{}, err
			}
			for _, p := range pkts {
				det.Observe(p)
			}
		}
		res, err := det.EndInterval()
		if err != nil {
			return DetectionLatency{}, err
		}
		lat.Intervals++
		if res.DetectionSeconds > lat.MaxSec {
			lat.MaxSec = res.DetectionSeconds
		}
		lat.MeanSec += res.DetectionSeconds / 2
	}
	return lat, nil
}

func maxFloat(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// LatencySummary aggregates time-to-detection over the NU trace.
type LatencySummary struct {
	Detected, Missed int
	MeanIntervals    float64
	MaxIntervals     int
}

// TimeToDetection measures how quickly each true attack in the NU trace
// produces its first final alert.
func TimeToDetection(s Scale) (LatencySummary, []evalx.LatencyReport, error) {
	rcfg, dcfg := hiFINDConfig()
	results, gen, err := RunHiFIND(NUTrace(s), rcfg, dcfg)
	if err != nil {
		return LatencySummary{}, nil, err
	}
	reports := evalx.DetectionLatencies(results, evalx.NewMatcher(gen.Attacks()), gen.Attacks())
	var sum LatencySummary
	var total int
	for _, r := range reports {
		if r.Latency < 0 {
			sum.Missed++
			continue
		}
		sum.Detected++
		total += r.Latency
		if r.Latency > sum.MaxIntervals {
			sum.MaxIntervals = r.Latency
		}
	}
	if sum.Detected > 0 {
		sum.MeanIntervals = float64(total) / float64(sum.Detected)
	}
	return sum, reports, nil
}
