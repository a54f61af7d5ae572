package core

import (
	"fmt"
	"sort"
	"time"

	"github.com/hifind/hifind/internal/netmodel"
	"github.com/hifind/hifind/internal/persist"
	"github.com/hifind/hifind/internal/revsketch"
	"github.com/hifind/hifind/internal/sketch"
	"github.com/hifind/hifind/internal/timeseries"
)

// DetectorConfig tunes the detection pipeline. NewDetector fills zero
// fields with the documented defaults.
type DetectorConfig struct {
	// Threshold is the forecast-error alarm level in unresponded SYNs per
	// interval. The paper uses one unresponded SYN per second, i.e. 60
	// for one-minute intervals.
	Threshold float64
	// Alpha is the EWMA smoothing constant of paper eq. (1).
	Alpha float64
	// Quorum is the reversible-sketch inference quorum (default H−1).
	Quorum int
	// MaxKeysPerStep caps keys recovered per reversible sketch per
	// interval, bounding detection time under floods (paper §5.5.3 runs a
	// "top 100 anomalies" stress variant).
	MaxKeysPerStep int
	// VerifyFraction scales the threshold for the verifier-sketch check:
	// an inferred key survives only if its verifier estimate is at least
	// VerifyFraction×Threshold. It absorbs estimator noise while still
	// killing modular-hash aliases, whose verifier estimate is ≈0.
	// Negative disables verification entirely (ablation only).
	VerifyFraction float64
	// TwoDTopP and TwoDPhi parameterize the 2D concentration test
	// (paper §4 example: top 5 of 64 buckets, φ=0.8).
	TwoDTopP int
	TwoDPhi  float64
	// PersistScan enables the persistent-and-sparse flow detector: keys
	// sitting in the sub-threshold band [Threshold/6, Threshold) of the
	// RS({SIP,Dport}) raw counts interval after interval. Stealthy scans
	// never clear Threshold, but they cannot avoid persistence.
	PersistScan bool
}

// applyDefaults fills zero-valued fields.
func (c DetectorConfig) applyDefaults() DetectorConfig {
	if c.Threshold == 0 {
		c.Threshold = 60
	}
	if c.Alpha == 0 {
		c.Alpha = timeseries.DefaultAlpha
	}
	if c.MaxKeysPerStep == 0 {
		c.MaxKeysPerStep = 2048
	}
	if c.VerifyFraction == 0 {
		c.VerifyFraction = 0.5
	}
	if c.TwoDTopP == 0 {
		c.TwoDTopP = 5
	}
	if c.TwoDPhi == 0 {
		c.TwoDPhi = 0.8
	}
	return c
}

// Validate rejects unusable configurations.
func (c DetectorConfig) Validate() error {
	if c.Threshold < 0 {
		return fmt.Errorf("core: negative threshold %v", c.Threshold)
	}
	if c.Alpha < 0 || c.Alpha > 1 {
		return fmt.Errorf("core: alpha %v out of [0,1]", c.Alpha)
	}
	if c.TwoDPhi < 0 || c.TwoDPhi > 1 {
		return fmt.Errorf("core: phi %v out of [0,1]", c.TwoDPhi)
	}
	return nil
}

// Detector is the full HiFIND system: a Recorder plus the per-interval
// analysis pipeline (EWMA forecasting, three-step detection, 2D
// classification, FP-reduction heuristics). Per-interval flow is
//
//	for each packet { d.Observe(pkt) }
//	res, err := d.EndInterval()
//
// For aggregated multi-router detection, record into per-router Recorders,
// add their MarshalBinary states into Recorder() with AddBinary, and call
// EndInterval (or EndIntervalWithPartial when routers are missing).
type Detector struct {
	cfg DetectorConfig
	rec *Recorder

	fcSipDport  *timeseries.EWMA
	fcDipDport  *timeseries.EWMA
	fcSipDip    *timeseries.EWMA
	fcVSipDport *timeseries.EWMA
	fcVDipDport *timeseries.EWMA
	fcVSipDip   *timeseries.EWMA

	interval int
	// streaks tracks consecutive anomalous intervals per flooding victim
	// for the persistence heuristic. Entries are pruned each interval, so
	// the map is bounded by MaxKeysPerStep — no per-flow state.
	streaks map[uint64]int
	// blockScanners remembers sources recently classified as block
	// scanners (value = remaining intervals): as the EWMA absorbs the
	// sweep, its tail intervals surface only one or two scan keys, which
	// still merge under the remembered identity instead of leaking as
	// fragmentary scan alerts. Bounded like streaks.
	blockScanners map[netmodel.IPv4]int
	// persist tracks sub-threshold band streaks for the persistent-and-
	// sparse flow detector — nil unless PersistScan is on.
	persist *persist.Tracker
}

// The persistent-and-sparse detector alerts once a key has sat in the
// sub-threshold band for persistStreak intervals, skipping at most
// persistGap intervals between sightings; its table holds at most
// persistMaxEntries keys.
const (
	persistStreak     = 3
	persistGap        = 1
	persistMaxEntries = 4096
)

// NewDetector builds a detector with its own recorder.
func NewDetector(rcfg RecorderConfig, dcfg DetectorConfig) (*Detector, error) {
	dcfg = dcfg.applyDefaults()
	if err := dcfg.Validate(); err != nil {
		return nil, err
	}
	rec, err := NewRecorder(rcfg)
	if err != nil {
		return nil, err
	}
	d := &Detector{
		cfg:           dcfg,
		rec:           rec,
		streaks:       make(map[uint64]int),
		blockScanners: make(map[netmodel.IPv4]int),
	}
	mk := func(p revsketch.Params) (*timeseries.EWMA, error) {
		return timeseries.NewEWMA(dcfg.Alpha, p.Stages, p.Buckets)
	}
	mkK := func(p sketch.Params) (*timeseries.EWMA, error) {
		return timeseries.NewEWMA(dcfg.Alpha, p.Stages, p.Buckets)
	}
	if d.fcSipDport, err = mk(rcfg.RS48); err != nil {
		return nil, err
	}
	if d.fcDipDport, err = mk(rcfg.RS48); err != nil {
		return nil, err
	}
	if d.fcSipDip, err = mk(rcfg.RS64); err != nil {
		return nil, err
	}
	if d.fcVSipDport, err = mkK(rcfg.Verifier); err != nil {
		return nil, err
	}
	if d.fcVDipDport, err = mkK(rcfg.Verifier); err != nil {
		return nil, err
	}
	if d.fcVSipDip, err = mkK(rcfg.Verifier); err != nil {
		return nil, err
	}
	if dcfg.PersistScan {
		d.persist, err = persist.NewTracker(persist.Config{
			MinIntervals: persistStreak,
			MaxGap:       persistGap,
			MaxEntries:   persistMaxEntries,
		})
		if err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Config returns the detection configuration (defaults applied).
func (d *Detector) Config() DetectorConfig { return d.cfg }

// Recorder exposes the detector's own recorder (for inspection and for
// serializing state to an aggregation site).
func (d *Detector) Recorder() *Recorder { return d.rec }

// Interval returns the number of completed intervals.
func (d *Detector) Interval() int { return d.interval }

// Observe records one packet into the detector's own recorder.
func (d *Detector) Observe(pkt netmodel.Packet) { d.rec.Observe(pkt) }

// ObserveFlow records one flow record.
func (d *Detector) ObserveFlow(rec netmodel.FlowRecord) { d.rec.ObserveFlow(rec) }

// EndInterval closes the current interval: runs detection over the
// detector's own recorder and resets it for the next interval.
func (d *Detector) EndInterval() (IntervalResult, error) {
	return d.EndIntervalWithPartial(false)
}

// EndIntervalWithPartial is EndInterval for merges that closed at the
// collection deadline with routers missing: with partial set, the
// result and each of its alerts are flagged Partial, so downstream
// consumers (mitigation, dashboards) can weigh them as lower bounds over
// the surviving routers' traffic rather than the whole edge.
func (d *Detector) EndIntervalWithPartial(partial bool) (IntervalResult, error) {
	rec := d.rec
	started := time.Now()
	res := IntervalResult{Interval: d.interval}

	// Feed this interval's counters to the forecasters; detection needs
	// every structure's error grid, or none (first interval).
	errSipDport, ok1, err := d.fcSipDport.Observe(rec.RSSipDport.Snapshot())
	if err != nil {
		return IntervalResult{}, err
	}
	errDipDport, ok2, err := d.fcDipDport.Observe(rec.RSDipDport.Snapshot())
	if err != nil {
		return IntervalResult{}, err
	}
	errSipDip, ok3, err := d.fcSipDip.Observe(rec.RSSipDip.Snapshot())
	if err != nil {
		return IntervalResult{}, err
	}
	errVSipDport, _, err := d.fcVSipDport.Observe(rec.VerSipDport.Snapshot())
	if err != nil {
		return IntervalResult{}, err
	}
	errVDipDport, _, err := d.fcVDipDport.Observe(rec.VerDipDport.Snapshot())
	if err != nil {
		return IntervalResult{}, err
	}
	errVSipDip, _, err := d.fcVSipDip.Observe(rec.VerSipDip.Snapshot())
	if err != nil {
		return IntervalResult{}, err
	}
	if ok1 && ok2 && ok3 {
		res, err = d.detect(rec, errGrids{
			sipDport: errSipDport, dipDport: errDipDport, sipDip: errSipDip,
			vSipDport: errVSipDport, vDipDport: errVDipDport, vSipDip: errVSipDip,
		})
		if err != nil {
			return IntervalResult{}, err
		}
		res.Interval = d.interval
		if err := d.detectScenarios(rec, &res); err != nil {
			return IntervalResult{}, err
		}
	}
	// Sample structure saturation before the reset wipes it.
	res.Diag.OccRSSipDport = rec.RSSipDport.Occupancy()
	res.Diag.OccRSDipDport = rec.RSDipDport.Occupancy()
	res.Diag.OccRSSipDip = rec.RSSipDip.Occupancy()
	res.Diag.OccVerSipDport = rec.VerSipDport.Occupancy()
	res.Diag.OccVerDipDport = rec.VerDipDport.Occupancy()
	res.Diag.OccVerSipDip = rec.VerSipDip.Occupancy()
	rec.Reset()
	d.interval++
	res.DetectionSeconds = time.Since(started).Seconds()
	if partial {
		res.Partial = true
		for _, alerts := range [][]Alert{res.Raw, res.Phase2, res.Final} {
			for i := range alerts {
				alerts[i].Partial = true
			}
		}
	}
	return res, nil
}

// errGrids bundles the forecast-error grids of one interval.
type errGrids struct {
	sipDport, dipDport, sipDip    sketch.Grid
	vSipDport, vDipDport, vSipDip sketch.Grid
}

// verifierCheck builds the inference Verify callback for one reversible
// sketch's paired verifier: a candidate key survives only if the
// verifier's forecast-error estimate confirms at least VerifyFraction of
// the threshold. Aliases produced by modular-hash collisions have
// near-zero verifier estimates and die here — inside the inference, so
// they can never crowd true keys out of the result cap.
func (d *Detector) verifierCheck(ver *sketch.Sketch, verErr sketch.Grid) func(uint64, float64) bool {
	if verErr == nil || d.cfg.VerifyFraction < 0 {
		return nil
	}
	total := verErr.Sum(0)
	floor := d.cfg.VerifyFraction * d.cfg.Threshold
	return func(key uint64, _ float64) bool {
		return ver.EstimateGridAtLeast(verErr, total, key, floor)
	}
}

// countsOptions builds the options of an auxiliary detector's search
// over raw interval counts: the main steps' quorum and key cap, and a
// Verify that passes a candidate only if the paired verifier's raw
// estimate confirms VerifyFraction of the search threshold.
func (d *Detector) countsOptions(ver *sketch.Sketch, threshold float64) revsketch.InferenceOptions {
	opts := revsketch.InferenceOptions{Quorum: d.cfg.Quorum, MaxKeys: d.cfg.MaxKeysPerStep}
	if d.cfg.VerifyFraction >= 0 {
		floor := d.cfg.VerifyFraction * threshold
		opts.Verify = func(key uint64, _ float64) bool {
			return ver.Estimate(key) >= floor
		}
	}
	return opts
}

// addSearch adds the work of one reverse-hashing search: a step of the
// three-step algorithm or an auxiliary detector's.
func (d *DiagStats) addSearch(st revsketch.InferenceStats) {
	d.InferenceNodes += st.Nodes
	d.InferenceLeaves += st.Leaves
	if st.BudgetHit {
		d.InferenceBudgetHits++
	}
}

// Phase 3's congestion filter (§3.4) passes a flooding victim only once
// it has stayed anomalous for minPersistIntervals consecutive intervals
// ("attacks last some time") and its SYNs outnumber its SYN/ACKs by
// minSynRatio (congestion still answers an appreciable fraction; floods
// answer almost none).
const (
	minPersistIntervals = 2
	minSynRatio         = 3
)

// detect runs the three-step algorithm of paper §3.3 plus the Phase 2/3
// false-positive reduction.
func (d *Detector) detect(rec *Recorder, g errGrids) (IntervalResult, error) {
	res := IntervalResult{}
	opts := revsketch.InferenceOptions{Quorum: d.cfg.Quorum, MaxKeys: d.cfg.MaxKeysPerStep}

	// Step 1 — RS({DIP,Dport}): SYN flooding victims.
	stepOpts := opts
	stepOpts.Verify = d.verifierCheck(rec.VerDipDport, g.vDipDport)
	stepStart := time.Now()
	floodKeys, err := rec.RSDipDport.Inference(g.dipDport, d.cfg.Threshold, stepOpts)
	if err != nil {
		return res, err
	}
	res.Diag.InferenceSeconds += time.Since(stepStart).Seconds()
	res.Diag.addSearch(rec.RSDipDport.LastInference())
	res.Diag.KeysRecovered += len(floodKeys)
	res.Diag.FloodCandidates = len(floodKeys)
	floodingDIPs := make(map[netmodel.IPv4]bool, len(floodKeys))
	type floodCand struct {
		dip  netmodel.IPv4
		port uint16
		est  float64
	}
	floods := make([]floodCand, 0, len(floodKeys))
	for _, ke := range floodKeys {
		dip, port := netmodel.UnpackIPPort(ke.Key)
		floodingDIPs[dip] = true
		floods = append(floods, floodCand{dip: dip, port: port, est: ke.Estimate})
	}

	// Step 2 — RS({SIP,DIP}): attacker→victim pairs. Pairs whose victim is
	// already a flooding victim identify (non-spoofed) flooding sources;
	// the rest are vertical-scan candidates.
	stepOpts.Verify = d.verifierCheck(rec.VerSipDip, g.vSipDip)
	stepStart = time.Now()
	pairKeys, err := rec.RSSipDip.Inference(g.sipDip, d.cfg.Threshold, stepOpts)
	if err != nil {
		return res, err
	}
	res.Diag.InferenceSeconds += time.Since(stepStart).Seconds()
	res.Diag.addSearch(rec.RSSipDip.LastInference())
	res.Diag.KeysRecovered += len(pairKeys)
	res.Diag.PairCandidates = len(pairKeys)
	floodingSIPs := make(map[netmodel.IPv4]bool)
	attackerOf := make(map[netmodel.IPv4]netmodel.IPv4) // flooding DIP → identified SIP
	type vscanCand struct {
		sip, dip netmodel.IPv4
		est      float64
		key      uint64
	}
	vscans := make([]vscanCand, 0, len(pairKeys))
	for _, ke := range pairKeys {
		sip, dip := netmodel.UnpackIPIP(ke.Key)
		if floodingDIPs[dip] {
			floodingSIPs[sip] = true
			attackerOf[dip] = sip
			continue
		}
		vscans = append(vscans, vscanCand{sip: sip, dip: dip, est: ke.Estimate, key: ke.Key})
	}

	// Step 3 — RS({SIP,Dport}): sources with many unanswered SYNs to one
	// port. Known flooding sources are floods; the rest are horizontal-
	// scan candidates.
	stepOpts.Verify = d.verifierCheck(rec.VerSipDport, g.vSipDport)
	stepStart = time.Now()
	srcKeys, err := rec.RSSipDport.Inference(g.sipDport, d.cfg.Threshold, stepOpts)
	if err != nil {
		return res, err
	}
	res.Diag.InferenceSeconds += time.Since(stepStart).Seconds()
	res.Diag.addSearch(rec.RSSipDport.LastInference())
	res.Diag.KeysRecovered += len(srcKeys)
	res.Diag.SourceCandidates = len(srcKeys)
	type hscanCand struct {
		sip  netmodel.IPv4
		port uint16
		est  float64
		key  uint64
	}
	hscans := make([]hscanCand, 0, len(srcKeys))
	for _, ke := range srcKeys {
		sip, port := netmodel.UnpackIPPort(ke.Key)
		if floodingSIPs[sip] {
			continue // non-spoofed flooding source, already attributed
		}
		hscans = append(hscans, hscanCand{sip: sip, port: port, est: ke.Estimate, key: ke.Key})
	}

	// Phase 1 (raw) alerts.
	for _, f := range floods {
		a := Alert{Type: AlertSYNFlood, Interval: d.interval, DIP: f.dip, Port: f.port, Estimate: f.est}
		if sip, ok := attackerOf[f.dip]; ok {
			a.SIP = sip
		} else {
			a.Spoofed = true
		}
		res.Raw = append(res.Raw, a)
	}
	for _, v := range vscans {
		res.Raw = append(res.Raw, Alert{
			Type: AlertVScan, Interval: d.interval, SIP: v.sip, DIP: v.dip, Estimate: v.est,
			FanoutEstimate: rec.TwoDSipDipXDport.DistinctYEstimate(v.key, 1),
		})
	}
	for _, h := range hscans {
		res.Raw = append(res.Raw, Alert{
			Type: AlertHScan, Interval: d.interval, SIP: h.sip, Port: h.port, Estimate: h.est,
			FanoutEstimate: rec.TwoDSipDportXDip.DistinctYEstimate(h.key, 1),
		})
	}

	// Phase 2 — 2D-sketch classification (§4): a vertical-scan candidate
	// whose destination-port distribution is concentrated is really a
	// (stealthy) SYN flood, not a scan; a horizontal-scan candidate whose
	// destination-IP distribution is concentrated likewise.
	res.Phase2 = res.Raw[:0:0]
	for _, a := range res.Raw {
		switch a.Type {
		case AlertVScan:
			key := netmodel.PackSIPDIP(a.SIP, a.DIP)
			if rec.TwoDSipDipXDport.Concentrated(key, d.cfg.TwoDTopP, d.cfg.TwoDPhi).Concentrated {
				continue // reclassified: concentrated ports ⇒ flooding-like, not a scan
			}
		case AlertHScan:
			key := netmodel.PackSIPDport(a.SIP, a.Port)
			if rec.TwoDSipDportXDip.Concentrated(key, d.cfg.TwoDTopP, d.cfg.TwoDPhi).Concentrated {
				continue // concentrated destinations ⇒ flooding-like
			}
		}
		res.Phase2 = append(res.Phase2, a)
	}
	res.Phase2 = d.mergeBlockScans(res.Phase2)

	// Phase 3 — flooding FP reduction (§3.4): active-service, SYN ratio
	// and persistence filters. Scan alerts pass through untouched.
	res.Final = res.Phase2[:0:0]
	seenVictims := make(map[uint64]bool)
	for _, a := range res.Phase2 {
		if a.Type != AlertSYNFlood {
			res.Final = append(res.Final, a)
			continue
		}
		victim := netmodel.PackDIPDport(a.DIP, a.Port)
		seenVictims[victim] = true
		if !rec.Services.Contains(victim) {
			continue // never answered a SYN: misconfiguration, not a DoS target
		}
		if !d.passesSynRatio(rec, victim) {
			continue // answering too well: congestion/overload, not a flood
		}
		d.streaks[victim]++
		if d.streaks[victim] < minPersistIntervals {
			continue // not persistent yet: transient burst
		}
		res.Final = append(res.Final, a)
	}
	// Drop streaks for victims that stopped being anomalous; bounded
	// state, and a later unrelated anomaly starts a fresh streak.
	for k := range d.streaks {
		if !seenVictims[k] {
			delete(d.streaks, k)
		}
	}
	return res, nil
}

// detectScenarios runs the auxiliary detectors — burst floods,
// persistent-and-sparse flows, reflection — and appends their alerts to
// every phase of res. They consume structures outside the EWMA error
// path (burst/reflection monitors, raw band counts), so the phase-2/3
// reclassification machinery does not apply to them; an auxiliary alert
// rides through all phases unchanged.
func (d *Detector) detectScenarios(rec *Recorder, res *IntervalResult) error {
	var extra []Alert
	burstAlerts, err := d.detectBursts(rec, &res.Diag)
	if err != nil {
		return err
	}
	extra = append(extra, burstAlerts...)
	persistAlerts, err := d.detectPersistent(rec, &res.Diag)
	if err != nil {
		return err
	}
	extra = append(extra, persistAlerts...)
	reflectAlerts, err := d.detectReflection(rec, &res.Diag)
	if err != nil {
		return err
	}
	extra = append(extra, reflectAlerts...)
	if len(extra) == 0 {
		return nil
	}
	// Each phase owns its backing array (every phase starts from a
	// zero-capacity reslice of the one before), so appending in place
	// cannot write through to another phase.
	res.Raw = append(res.Raw, extra...)
	res.Phase2 = append(res.Phase2, extra...)
	res.Final = append(res.Final, extra...)
	return nil
}

// detectBursts searches the sub-interval burst monitor: keys whose SYN
// excess concentrates inside one slot window while the interval total
// stays under the flood threshold — pulses the interval-grain EWMA
// never sees.
func (d *Detector) detectBursts(rec *Recorder, diag *DiagStats) ([]Alert, error) {
	if rec.Burst == nil {
		return nil, nil
	}
	start := time.Now()
	// A key alerts when one slot alone reaches half the threshold while
	// the interval total stays under it — the long-duration-flow filter
	// that keeps sustained floods out of the burst channel. The slot
	// searches' aliases die at the {DIP,Dport} verifier, which carries
	// the same signal summed over the interval: a pulse leaves at least
	// its slot's mass there, an alias next to nothing.
	slotThreshold := d.cfg.Threshold / 2
	opts := d.countsOptions(rec.VerDipDport, slotThreshold)
	findings, err := rec.Burst.Detect(slotThreshold, d.cfg.Threshold, opts, diag.addSearch)
	if err != nil {
		return nil, err
	}
	diag.InferenceSeconds += time.Since(start).Seconds()
	diag.BurstCandidates = len(findings)
	diag.KeysRecovered += len(findings)
	alerts := make([]Alert, 0, len(findings))
	for _, f := range findings {
		dip, port := netmodel.UnpackIPPort(f.Key)
		alerts = append(alerts, Alert{
			Type: AlertBurstFlood, Interval: d.interval,
			DIP: dip, Port: port, Spoofed: true,
			Estimate: f.Peak, Slot: f.Slot,
		})
	}
	return alerts, nil
}

// detectPersistent surfaces keys sitting in the sub-threshold band
// [Threshold/6, Threshold) of the RS({SIP,Dport}) RAW counts and feeds
// them to the persistence tracker; keys banded for persistStreak
// gap-tolerant intervals alert. Raw counts (not forecast errors) on
// purpose: a steady low-rate scan is exactly what the EWMA absorbs into
// its forecast, so its error vanishes while its raw mass persists.
func (d *Detector) detectPersistent(rec *Recorder, diag *DiagStats) ([]Alert, error) {
	if d.persist == nil {
		return nil, nil
	}
	floor := d.cfg.Threshold / 6
	start := time.Now()
	band, err := rec.RSSipDport.InferenceCounts(floor, d.countsOptions(rec.VerSipDport, floor))
	if err != nil {
		return nil, err
	}
	diag.InferenceSeconds += time.Since(start).Seconds()
	diag.addSearch(rec.RSSipDport.LastInference())
	// Keep only the sub-threshold band: anything at or above Threshold
	// is a fast attack and belongs to the main three-step pipeline.
	obs := make([]persist.Observation, 0, len(band))
	for _, ke := range band {
		if ke.Estimate >= d.cfg.Threshold {
			continue
		}
		obs = append(obs, persist.Observation{Key: ke.Key, Estimate: ke.Estimate})
	}
	diag.PersistCandidates = len(obs)
	findings := d.persist.Advance(uint64(d.interval), obs)
	diag.KeysRecovered += len(findings)
	alerts := make([]Alert, 0, len(findings))
	for _, f := range findings {
		sip, port := netmodel.UnpackIPPort(f.Key)
		alerts = append(alerts, Alert{
			Type: AlertPersistScan, Interval: d.interval,
			SIP: sip, Port: port, Estimate: f.Estimate,
			FanoutEstimate: rec.TwoDSipDportXDip.DistinctYEstimate(f.Key, 1),
		})
	}
	return alerts, nil
}

// detectReflection searches the reflection monitor: {victim, service
// port} keys whose inbound SYN/ACK volume has no matching outbound SYNs
// to cancel against. Benign round trips net to zero by construction, so
// surviving positive mass is backscatter-style reflected flood traffic.
func (d *Detector) detectReflection(rec *Recorder, diag *DiagStats) ([]Alert, error) {
	if rec.Reflect == nil {
		return nil, nil
	}
	start := time.Now()
	keys, err := rec.Reflect.InferenceCounts(d.cfg.Threshold, d.countsOptions(rec.VerReflect, d.cfg.Threshold))
	if err != nil {
		return nil, err
	}
	diag.InferenceSeconds += time.Since(start).Seconds()
	diag.addSearch(rec.Reflect.LastInference())
	diag.ReflectionCandidates = len(keys)
	diag.KeysRecovered += len(keys)
	alerts := make([]Alert, 0, len(keys))
	for _, ke := range keys {
		dip, port := netmodel.UnpackIPPort(ke.Key)
		alerts = append(alerts, Alert{
			Type: AlertReflection, Interval: d.interval,
			DIP: dip, Port: port, Spoofed: true, Estimate: ke.Estimate,
		})
	}
	return alerts, nil
}

// mergeBlockScans recognizes block scans (paper §3.2's third scan type):
// one source sweeping an address range × port range triggers step 2 once
// per address (vertical-scan candidates) and step 3 once per port
// (horizontal-scan candidates) simultaneously. When a source owns at
// least blockScanMinKeys alerts of each kind, the constituents collapse
// into a single block-scan alert carrying the source and the combined
// change magnitude, so mitigation blocks the host instead of chasing its
// per-port shadows.
func (d *Detector) mergeBlockScans(alerts []Alert) []Alert {
	const blockScanMinKeys = 2
	type tally struct{ v, h int }
	bySIP := make(map[netmodel.IPv4]*tally)
	for _, a := range alerts {
		if a.Type != AlertVScan && a.Type != AlertHScan {
			continue
		}
		t := bySIP[a.SIP]
		if t == nil {
			t = &tally{}
			bySIP[a.SIP] = t
		}
		if a.Type == AlertVScan {
			t.v++
		} else {
			t.h++
		}
	}
	merged := make(map[netmodel.IPv4]bool)
	for sip, t := range bySIP {
		if t.v >= blockScanMinKeys && t.h >= blockScanMinKeys {
			merged[sip] = true
		} else if d.blockScanners[sip] > 0 && t.v+t.h >= 1 {
			merged[sip] = true // tail of a known block scan
		}
	}
	// Age the memory and refresh it for everything merged this interval.
	for sip := range d.blockScanners {
		d.blockScanners[sip]--
		if d.blockScanners[sip] <= 0 {
			delete(d.blockScanners, sip)
		}
	}
	const blockMemoryIntervals = 4
	for sip := range merged {
		d.blockScanners[sip] = blockMemoryIntervals
	}
	if len(merged) == 0 {
		return alerts
	}
	out := alerts[:0]
	block := make(map[netmodel.IPv4]*Alert, len(merged))
	for _, a := range alerts {
		if (a.Type == AlertVScan || a.Type == AlertHScan) && merged[a.SIP] {
			b := block[a.SIP]
			if b == nil {
				b = &Alert{Type: AlertBlockScan, Interval: a.Interval, SIP: a.SIP}
				block[a.SIP] = b
			}
			b.Estimate += a.Estimate
			b.FanoutEstimate++ // distinct scan keys the block collapsed
			continue
		}
		out = append(out, a)
	}
	sips := make([]netmodel.IPv4, 0, len(block))
	for sip := range block {
		sips = append(sips, sip)
	}
	sort.Slice(sips, func(i, j int) bool { return sips[i] < sips[j] })
	for _, sip := range sips {
		out = append(out, *block[sip])
	}
	return out
}

// passesSynRatio applies the §3.4 congestion filter: estimate this
// interval's #SYN (original sketch) and #SYN−#SYN/ACK (reversible sketch)
// for the victim service and require SYNs to dominate the answered share.
func (d *Detector) passesSynRatio(rec *Recorder, victim uint64) bool {
	syn := rec.OSDipDport.Estimate(victim)
	unresp := rec.RSDipDport.Estimate(victim)
	synAck := syn - unresp
	if synAck <= 0 {
		return true // nothing answered at all: flood-like (or dark, which
		// the active-service filter already handled)
	}
	return syn >= minSynRatio*synAck
}
