// Package core implements the HiFIND detection system itself: the
// sketch-based traffic recorder (paper §5.1's structure set), the
// three-step flow-level detection algorithm (§3.3), the 2D-sketch
// intrusion classification (§4), and the false-positive reduction
// heuristics (§3.4). Everything below the per-interval API is streaming:
// per-packet state is a constant number of sketch counter updates, which
// is what makes the system DoS-resilient (§3.5).
package core

import (
	"fmt"

	"github.com/hifind/hifind/internal/netmodel"
)

// AlertType classifies a detection.
type AlertType int

// Alert types. SYN flooding alerts carry the victim {DIP,Dport};
// horizontal scans the scanner {SIP,Dport}; vertical scans the pair
// {SIP,DIP}.
// Burst-flood alerts carry the victim {DIP,Dport} plus the sub-interval
// slot that peaked; persist-scan alerts the scanner {SIP,Dport};
// reflection alerts the victim {DIP, reflecting service port}.
const (
	AlertSYNFlood AlertType = iota + 1
	AlertHScan
	AlertVScan
	AlertBlockScan
	AlertBurstFlood
	AlertPersistScan
	AlertReflection
)

// String names the alert type.
func (t AlertType) String() string {
	switch t {
	case AlertSYNFlood:
		return "syn-flood"
	case AlertHScan:
		return "hscan"
	case AlertVScan:
		return "vscan"
	case AlertBlockScan:
		return "blockscan"
	case AlertBurstFlood:
		return "burst-flood"
	case AlertPersistScan:
		return "persist-scan"
	case AlertReflection:
		return "reflection"
	default:
		return fmt.Sprintf("alerttype(%d)", int(t))
	}
}

// Alert is one detected intrusion, carrying the culprit flow keys the
// reversible sketches recovered — exactly the information a mitigation
// system needs to install a filter.
type Alert struct {
	Type     AlertType
	Interval int
	// SIP is the attacker address (zero for spoofed floods, where no
	// meaningful source exists).
	SIP netmodel.IPv4
	// DIP is the victim address (zero for horizontal scans, which have no
	// single victim).
	DIP netmodel.IPv4
	// Port is the destination port (zero for vertical scans).
	Port uint16
	// Spoofed marks flooding alerts with no identified attacker.
	Spoofed bool
	// Estimate is the forecast-error magnitude (unresponded-SYN change)
	// that triggered the alert.
	Estimate float64
	// FanoutEstimate approximates the number of distinct destinations
	// (hscan) or ports (vscan) the attacker touched, from the 2D sketch.
	FanoutEstimate int
	// Slot is the sub-interval window index whose counters peaked, for
	// burst-flood alerts (zero otherwise).
	Slot int
	// Partial marks alerts from an interval whose multi-router merge
	// closed at the deadline with at least one router missing: the alert
	// is real for the traffic the surviving routers saw, but magnitudes
	// are lower bounds and attacks visible only through the missing
	// router may be absent.
	Partial bool
}

// Key returns a dedup identity for the alert: alerts for the same culprit
// in different intervals compare equal.
func (a Alert) Key() AlertKey {
	return AlertKey{Type: a.Type, SIP: a.SIP, DIP: a.DIP, Port: a.Port}
}

// AlertKey identifies an alert's culprit independent of interval.
type AlertKey struct {
	Type AlertType
	SIP  netmodel.IPv4
	DIP  netmodel.IPv4
	Port uint16
}

// String renders the alert compactly.
func (a Alert) String() string {
	switch a.Type {
	case AlertSYNFlood:
		who := "spoofed sources"
		if !a.Spoofed {
			who = a.SIP.String()
		}
		return fmt.Sprintf("[%s] interval %d: %s -> %s:%d (Δ=%.0f)",
			a.Type, a.Interval, who, a.DIP, a.Port, a.Estimate)
	case AlertHScan:
		return fmt.Sprintf("[%s] interval %d: %s scanning port %d across ~%d hosts (Δ=%.0f)",
			a.Type, a.Interval, a.SIP, a.Port, a.FanoutEstimate, a.Estimate)
	case AlertVScan:
		return fmt.Sprintf("[%s] interval %d: %s scanning %s across ~%d ports (Δ=%.0f)",
			a.Type, a.Interval, a.SIP, a.DIP, a.FanoutEstimate, a.Estimate)
	case AlertBlockScan:
		return fmt.Sprintf("[%s] interval %d: %s sweeping an address × port block (~%d keys, Δ=%.0f)",
			a.Type, a.Interval, a.SIP, a.FanoutEstimate, a.Estimate)
	case AlertBurstFlood:
		return fmt.Sprintf("[%s] interval %d: pulse against %s:%d in slot %d (peak=%.0f)",
			a.Type, a.Interval, a.DIP, a.Port, a.Slot, a.Estimate)
	case AlertPersistScan:
		return fmt.Sprintf("[%s] interval %d: %s probing port %d below threshold across ~%d hosts (rate=%.0f)",
			a.Type, a.Interval, a.SIP, a.Port, a.FanoutEstimate, a.Estimate)
	case AlertReflection:
		return fmt.Sprintf("[%s] interval %d: reflected flood against %s via port %d (Δ=%.0f)",
			a.Type, a.Interval, a.DIP, a.Port, a.Estimate)
	default:
		return fmt.Sprintf("[%s] interval %d", a.Type, a.Interval)
	}
}

// IntervalResult is the outcome of one detection interval, reported per
// phase so the Table 4 pipeline is observable:
//
//	Raw    — phase 1: three-step reversible-sketch detection (§3.3)
//	Phase2 — after 2D-sketch reclassification of port scans (§4)
//	Final  — after the SYN-flooding FP-reduction heuristics (§3.4)
type IntervalResult struct {
	Interval int
	Raw      []Alert
	Phase2   []Alert
	Final    []Alert
	// Partial marks intervals detected over an incomplete multi-router
	// merge (see Alert.Partial).
	Partial bool
	// DetectionSeconds is the wall time the analysis took (paper §5.5.3).
	DetectionSeconds float64
	// Diag carries per-interval observability sampled before the
	// recorder reset — the telemetry layer cannot read the sketches
	// afterwards.
	Diag DiagStats
}

// DiagStats is the per-interval health snapshot of the detection data
// structures: how many candidate keys each inference step surfaced and
// how saturated each sketch ran. Occupancies are fractions of nonzero
// counters; candidate counts are pre-verification inference outputs.
type DiagStats struct {
	FloodCandidates  int // RS({DIP,Dport}) step-1 keys
	PairCandidates   int // RS({SIP,DIP}) step-2 keys
	SourceCandidates int // RS({SIP,Dport}) step-3 keys

	// Auxiliary-detector candidate counts (zero when the corresponding
	// detector is off): burst-monitor findings, persistence-band keys
	// fed to the streak tracker, reflection-monitor keys.
	BurstCandidates      int
	PersistCandidates    int
	ReflectionCandidates int

	// InferenceSeconds is the wall time the interval's offender-key
	// recovery took, summed over every reverse-hashing search: the
	// three steps plus the enabled auxiliary detectors (one search per
	// burst slot, one each for persistence and reflection);
	// KeysRecovered is their combined post-verification yield. Zero on
	// intervals where detection did not run (forecast warm-up).
	InferenceSeconds float64
	KeysRecovered    int
	// The same searches' work, summed (revsketch InferenceStats): DFS
	// nodes expanded, candidate keys emitted, and how many searches a
	// node or operation budget cut short.
	InferenceNodes      int
	InferenceLeaves     int
	InferenceBudgetHits int

	// OccRS and OccVer are the occupancies of each detection lane's
	// reversible sketch and verifier, indexed like LaneNames.
	OccRS, OccVer [numLanes]float64

	// CacheFlushSeconds is always zero: every update reaches the
	// sketches at observe time, so rotation has nothing to drain. It
	// stays only because the benchmark's core.cache_flush_ms row reads
	// it.
	CacheFlushSeconds float64
}
