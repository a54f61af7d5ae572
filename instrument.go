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

	occRSSipDport  *telemetry.Gauge
	occRSDipDport  *telemetry.Gauge
	occRSSipDip    *telemetry.Gauge
	occVerSipDport *telemetry.Gauge
	occVerDipDport *telemetry.Gauge
	occVerSipDip   *telemetry.Gauge

	candFlood  *telemetry.Gauge
	candPair   *telemetry.Gauge
	candSource *telemetry.Gauge

	inferSeconds    *telemetry.Histogram
	inferKeys       *telemetry.Counter
	inferNodes      *telemetry.Counter
	inferLeaves     *telemetry.Counter
	inferBudgetHits *telemetry.Counter

	cacheHits      *telemetry.Counter
	cacheMisses    *telemetry.Counter
	cacheEvictions *telemetry.Counter
	cacheOccupancy *telemetry.Gauge
	cacheFlush     *telemetry.Histogram
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
			"candidate keys surfaced by each reverse-inference step last interval",
			telemetry.Label{Name: "step", Value: step})
	}
	return instruments{
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

		occRSSipDport:  occ("rs_sip_dport"),
		occRSDipDport:  occ("rs_dip_dport"),
		occRSSipDip:    occ("rs_sip_dip"),
		occVerSipDport: occ("ver_sip_dport"),
		occVerDipDport: occ("ver_dip_dport"),
		occVerSipDip:   occ("ver_sip_dip"),

		candFlood:  cand("flood"),
		candPair:   cand("pair"),
		candSource: cand("source"),

		inferSeconds: reg.Histogram("hifind_inference_decode_seconds",
			"per-interval offender-key recovery wall time (all three steps)",
			telemetry.DefBuckets),
		inferKeys: reg.Counter("hifind_inference_keys_recovered_total",
			"verified offender keys recovered across all inference steps"),
		inferNodes: reg.Counter("hifind_inference_nodes_total",
			"reverse-search nodes expanded by the three inference steps"),
		inferLeaves: reg.Counter("hifind_inference_leaves_total",
			"candidate keys the three inference steps' reverse search emitted"),
		inferBudgetHits: reg.Counter("hifind_inference_budget_hits_total",
			"inference steps whose node or operation budget cut the search short"),

		cacheHits: reg.Counter("hifind_flowcache_hits_total",
			"flow-cache probes that found their connection resident"),
		cacheMisses: reg.Counter("hifind_flowcache_misses_total",
			"flow-cache probes that had to install their connection"),
		cacheEvictions: reg.Counter("hifind_flowcache_evictions_total",
			"flow-cache entries flushed early to make room"),
		cacheOccupancy: reg.Gauge("hifind_flowcache_occupancy_ratio",
			"resident fraction of the flow cache sampled before the rotation flush"),
		cacheFlush: reg.Histogram("hifind_flowcache_flush_seconds",
			"rotation-time flow-cache drain wall time", telemetry.DefBuckets),
	}
}

// recordInterval publishes one interval's diagnostics and alerts. Runs
// once per rotation, never per packet.
func (ins *instruments) recordInterval(res core.IntervalResult) {
	ins.intervals.Inc()
	ins.detection.Observe(res.DetectionSeconds)

	d := res.Diag
	ins.occRSSipDport.Set(d.OccRSSipDport)
	ins.occRSDipDport.Set(d.OccRSDipDport)
	ins.occRSSipDip.Set(d.OccRSSipDip)
	ins.occVerSipDport.Set(d.OccVerSipDport)
	ins.occVerDipDport.Set(d.OccVerDipDport)
	ins.occVerSipDip.Set(d.OccVerSipDip)
	ins.candFlood.Set(float64(d.FloodCandidates))
	ins.candPair.Set(float64(d.PairCandidates))
	ins.candSource.Set(float64(d.SourceCandidates))
	// Warm-up intervals never ran inference; observing their zero would
	// drag the latency histogram below what recovery actually costs.
	if d.InferenceSeconds > 0 || d.KeysRecovered > 0 {
		ins.inferSeconds.Observe(d.InferenceSeconds)
		ins.inferKeys.Add(int64(d.KeysRecovered))
		ins.inferNodes.Add(int64(d.InferenceNodes))
		ins.inferLeaves.Add(int64(d.InferenceLeaves))
		ins.inferBudgetHits.Add(int64(d.InferenceBudgetHits))
	}
	// Cache-less detectors report identically-zero cache diagnostics;
	// skip them so the series only move when a cache is actually wired.
	if d.CacheHits > 0 || d.CacheMisses > 0 || d.CacheFlushSeconds > 0 {
		ins.cacheHits.Add(d.CacheHits)
		ins.cacheMisses.Add(d.CacheMisses)
		ins.cacheEvictions.Add(d.CacheEvictions)
		ins.cacheOccupancy.Set(d.CacheOccupancy)
		ins.cacheFlush.Observe(d.CacheFlushSeconds)
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
