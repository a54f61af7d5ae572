package hifind

import (
	"time"

	"github.com/hifind/hifind/internal/core"
	"github.com/hifind/hifind/internal/telemetry"
)

// instruments bundles the facade's metric handles. The zero value (all
// nil) is the uninstrumented state: every telemetry method is nil-safe,
// so an un-wired detector pays one dead branch per call site and
// nothing else — the paper's per-packet budget (§5.5.2) stays intact.
type instruments struct {
	packets   *telemetry.Counter
	flows     *telemetry.Counter
	dropped   *telemetry.Counter
	intervals *telemetry.Counter
	detection *telemetry.Histogram

	alertSyn     *telemetry.Counter
	alertHScan   *telemetry.Counter
	alertVScan   *telemetry.Counter
	alertBlock   *telemetry.Counter
	alertBurst   *telemetry.Counter
	alertPersist *telemetry.Counter
	alertReflect *telemetry.Counter

	// Occupancy of each detection lane's reversible sketch and
	// verifier, indexed like core.LaneNames.
	occRS, occVer [len(core.LaneNames)]*telemetry.Gauge

	// Candidate keys of each inference step and auxiliary detector,
	// indexed like candidateSteps.
	cand [len(candidateSteps)]*telemetry.Gauge

	inferSeconds    *telemetry.Histogram
	inferKeys       *telemetry.Counter
	inferNodes      *telemetry.Counter
	inferLeaves     *telemetry.Counter
	inferBudgetHits *telemetry.Counter
}

// newInstruments registers the hifind_* series on reg. A nil reg yields
// the zero (no-op) instruments.
func newInstruments(reg *telemetry.Registry) instruments {
	if reg == nil {
		return instruments{}
	}
	alert := func(typ string) *telemetry.Counter {
		return reg.Counter("hifind_alerts_total", "final alerts by attack type",
			telemetry.Label{Name: "type", Value: typ})
	}
	occ := func(sk string) *telemetry.Gauge {
		return reg.Gauge("hifind_sketch_occupancy_ratio",
			"fraction of nonzero sketch counters at rotation",
			telemetry.Label{Name: "sketch", Value: sk})
	}
	cand := func(step string) *telemetry.Gauge {
		return reg.Gauge("hifind_inference_candidates",
			"candidate keys surfaced last interval by each inference step and auxiliary detector",
			telemetry.Label{Name: "step", Value: step})
	}
	ins := instruments{
		packets: reg.Counter("hifind_packets_observed_total",
			"packets recorded into the sketches"),
		flows: reg.Counter("hifind_flows_observed_total",
			"flow records recorded into the sketches"),
		dropped: reg.Counter("hifind_dropped_non_ipv4_total",
			"packets and flows dropped as non-IPv4"),
		intervals: reg.Counter("hifind_intervals_total",
			"measurement intervals completed"),
		detection: reg.Histogram("hifind_detection_seconds",
			"per-interval detection wall time", telemetry.DefBuckets),

		alertSyn:     alert(SYNFlood.String()),
		alertHScan:   alert(HorizontalScan.String()),
		alertVScan:   alert(VerticalScan.String()),
		alertBlock:   alert(BlockScan.String()),
		alertBurst:   alert(BurstFlood.String()),
		alertPersist: alert(PersistentScan.String()),
		alertReflect: alert(Reflection.String()),

		inferSeconds: reg.Histogram("hifind_inference_decode_seconds",
			"per-interval offender-key recovery wall time (the three steps and the auxiliary detectors)",
			telemetry.DefBuckets),
		inferKeys: reg.Counter("hifind_inference_keys_recovered_total",
			"verified offender keys recovered across all inference steps"),
		inferNodes: reg.Counter("hifind_inference_nodes_total",
			"reverse-search nodes expanded by every search: the three steps, each burst slot, persistence and reflection"),
		inferLeaves: reg.Counter("hifind_inference_leaves_total",
			"candidate keys emitted by every reverse search: the three steps, each burst slot, persistence and reflection"),
		inferBudgetHits: reg.Counter("hifind_inference_budget_hits_total",
			"reverse searches, of the three steps or the auxiliary detectors, whose node or operation budget cut them short"),
	}
	for i, lane := range core.LaneNames {
		ins.occRS[i] = occ("rs_" + lane)
		ins.occVer[i] = occ("ver_" + lane)
	}
	for i, step := range candidateSteps {
		ins.cand[i] = cand(step)
	}
	return ins
}

// candidateSteps labels hifind_inference_candidates: the three steps,
// then the auxiliary detectors, in recordInterval's order.
var candidateSteps = [...]string{"flood", "pair", "source", "burst", "persist", "reflection"}

// recordInterval publishes one interval's diagnostics and alerts. Runs
// once per rotation, never per packet.
func (ins *instruments) recordInterval(res core.IntervalResult) {
	ins.intervals.Inc()
	ins.detection.Observe(res.DetectionSeconds)

	d := res.Diag
	for i := range d.OccRS {
		ins.occRS[i].Set(d.OccRS[i])
		ins.occVer[i].Set(d.OccVer[i])
	}
	for i, n := range [len(candidateSteps)]int{
		d.FloodCandidates, d.PairCandidates, d.SourceCandidates,
		d.BurstCandidates, d.PersistCandidates, d.ReflectionCandidates,
	} {
		ins.cand[i].Set(float64(n))
	}
	// Warm-up intervals never ran inference; observing their zero would
	// drag the latency histogram below what recovery actually costs.
	if d.InferenceSeconds > 0 || d.KeysRecovered > 0 {
		ins.inferSeconds.Observe(d.InferenceSeconds)
		ins.inferKeys.Add(int64(d.KeysRecovered))
		ins.inferNodes.Add(int64(d.InferenceNodes))
		ins.inferLeaves.Add(int64(d.InferenceLeaves))
		ins.inferBudgetHits.Add(int64(d.InferenceBudgetHits))
	}

	for _, a := range res.Final {
		switch a.Type {
		case core.AlertSYNFlood:
			ins.alertSyn.Inc()
		case core.AlertHScan:
			ins.alertHScan.Inc()
		case core.AlertVScan:
			ins.alertVScan.Inc()
		case core.AlertBlockScan:
			ins.alertBlock.Inc()
		case core.AlertBurstFlood:
			ins.alertBurst.Inc()
		case core.AlertPersistScan:
			ins.alertPersist.Inc()
		case core.AlertReflection:
			ins.alertReflect.Inc()
		}
	}
}

// emitResult publishes one "alert" event per final alert plus one
// "interval" summary into sink. A nil sink is a no-op.
func emitResult(sink telemetry.Sink, res Result) {
	if sink == nil {
		return
	}
	now := time.Now()
	for _, a := range res.Final {
		fields := map[string]any{
			"type":      a.Type.String(),
			"interval":  a.Interval,
			"magnitude": a.Magnitude,
		}
		if a.Attacker.IsValid() {
			fields["attacker"] = a.Attacker.String()
		}
		if a.Victim.IsValid() {
			fields["victim"] = a.Victim.String()
		}
		if a.Port != 0 {
			fields["port"] = a.Port
		}
		if a.Spoofed {
			fields["spoofed"] = true
		}
		if a.Fanout != 0 {
			fields["fanout"] = a.Fanout
		}
		if a.Type == BurstFlood {
			fields["slot"] = a.Slot
		}
		sink.Emit(telemetry.Event{Time: now, Kind: "alert", Fields: fields})
	}
	sink.Emit(telemetry.Event{Time: now, Kind: "interval", Fields: map[string]any{
		"interval":          res.Interval,
		"raw_alerts":        len(res.Raw),
		"classified_alerts": len(res.AfterClassification),
		"final_alerts":      len(res.Final),
		"detection_seconds": res.DetectionTime.Seconds(),
	}})
}
