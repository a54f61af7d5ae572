package hifind

import (
	"fmt"
	"time"

	"github.com/hifind/hifind/internal/burst"
	"github.com/hifind/hifind/internal/core"
	"github.com/hifind/hifind/internal/telemetry"
)

// config carries everything an option can set.
type config struct {
	seed     uint64
	interval time.Duration
	// thresholdPerSecond is the paper's detection threshold unit: one
	// un-responded SYN per second by default (§5.1); the per-interval
	// threshold is derived from it and the interval length.
	thresholdPerSecond float64
	alpha              float64
	compact            bool
	burstMonitor       bool
	persistScan        bool
	reflection         bool
	// Observability (nil means uninstrumented — zero hot-path cost).
	reg  *telemetry.Registry
	sink telemetry.Sink
}

func defaultConfig() config {
	return config{
		seed:               0x48694649, // "HiFI"; override for multi-site deployments
		interval:           time.Minute,
		thresholdPerSecond: 1,
		alpha:              0.5,
	}
}

// Option customizes a Detector or Recorder.
type Option func(*config) error

// WithSeed sets the hash seed. Every HiFIND instance that participates in
// one aggregated deployment must share the seed, or their sketches cannot
// be combined.
func WithSeed(seed uint64) Option {
	return func(c *config) error {
		if seed == 0 {
			return fmt.Errorf("hifind: seed must be nonzero")
		}
		c.seed = seed
		return nil
	}
}

// WithInterval sets the measurement interval length (default one minute,
// the paper's setting). It scales the detection threshold: the paper's
// unit is un-responded SYNs per second.
func WithInterval(d time.Duration) Option {
	return func(c *config) error {
		if d <= 0 {
			return fmt.Errorf("hifind: non-positive interval %v", d)
		}
		c.interval = d
		return nil
	}
}

// WithThresholdPerSecond sets the detection threshold in un-responded
// SYNs per second (default 1, as in paper §5.1).
func WithThresholdPerSecond(t float64) Option {
	return func(c *config) error {
		if t <= 0 {
			return fmt.Errorf("hifind: non-positive threshold %v", t)
		}
		c.thresholdPerSecond = t
		return nil
	}
}

// WithAlpha sets the EWMA smoothing constant of the forecast model
// (paper eq. 1), in (0,1].
func WithAlpha(a float64) Option {
	return func(c *config) error {
		if a <= 0 || a > 1 {
			return fmt.Errorf("hifind: alpha %v out of (0,1]", a)
		}
		c.alpha = a
		return nil
	}
}

// WithCompactSketches shrinks every sketch below the paper's 13.2 MB
// configuration (≈1.5 MB total). Accuracy degrades gracefully; intended
// for tests and memory-constrained deployments.
func WithCompactSketches() Option {
	return func(c *config) error {
		c.compact = true
		return nil
	}
}

// WithBurstDetection adds the sub-interval burst monitor: the interval
// is cut into eight windows, each backed by its own reversible sketch
// (one shared hash family, 96 KiB of counters per window at the paper
// geometry), and a {DIP,Dport} key whose un-responded-SYN mass
// concentrates in one window while the interval total stays below the
// flood threshold raises a burst-flood alert. Keys are recovered by
// reverse hashing each window and confirmed against the {DIP,Dport}
// verifier, like the three-step pipeline's. This is the pulse attack the
// interval-grain EWMA structurally cannot see — 48 SYNs in 4 seconds is
// invisible at a 60-per-minute threshold, devastating at the 7.5-second
// window scale of the default one-minute interval.
func WithBurstDetection() Option {
	return func(c *config) error {
		c.burstMonitor = true
		return nil
	}
}

// WithPersistentFlowDetection adds the persistent-and-sparse flow
// detector: {SIP,Dport} keys sitting in the sub-threshold band of the
// raw un-responded-SYN counts interval after interval build a streak,
// and a long enough streak alerts. A scanner pacing itself below the
// per-interval threshold evades the EWMA channel entirely — the rate is
// steady, so the forecast absorbs it — but cannot avoid persisting.
func WithPersistentFlowDetection() Option {
	return func(c *config) error {
		c.persistScan = true
		return nil
	}
}

// WithReflectionDetection adds the reflection/amplification monitor: a
// reversible sketch over {local host, remote service port}, paired with
// its own verifier sketch, that subtracts outbound SYNs and adds
// inbound SYN/ACKs. Benign round trips cancel; reflected floods —
// SYN/ACK backscatter from reflectors that never saw a SYN from us —
// accumulate and alert. These packet classes are invisible to the
// SYN-side structures the three-step pipeline reads.
func WithReflectionDetection() Option {
	return func(c *config) error {
		c.reflection = true
		return nil
	}
}

// WithTelemetry attaches a metrics registry. The detector registers its
// hifind_* series on it and keeps them current: packet/flow counters on
// the hot path, rotation duration, alert counts by type, sketch
// occupancy and inference candidate gauges at each interval end.
// Without this option the hot path carries nil metric handles and pays
// only a dead branch per call site.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(c *config) error {
		if reg == nil {
			return fmt.Errorf("hifind: nil telemetry registry")
		}
		c.reg = reg
		return nil
	}
}

// WithAlertSink routes structured detection events into sink: one
// "alert" event per final alert and one "interval" summary per rotation.
// Replaces printf-style reporting in operational deployments.
func WithAlertSink(sink telemetry.Sink) Option {
	return func(c *config) error {
		if sink == nil {
			return fmt.Errorf("hifind: nil alert sink")
		}
		c.sink = sink
		return nil
	}
}

// build materializes the internal configurations.
func (c config) build() (core.RecorderConfig, core.DetectorConfig) {
	rcfg := core.PaperRecorderConfig(c.seed)
	if c.compact {
		rcfg = core.TestRecorderConfig(c.seed)
	}
	if c.burstMonitor {
		rcfg.BurstWindow = c.interval / burst.Slots
	}
	rcfg.Reflection = c.reflection
	dcfg := core.DetectorConfig{
		Threshold:   c.thresholdPerSecond * c.interval.Seconds(),
		Alpha:       c.alpha,
		PersistScan: c.persistScan,
	}
	return rcfg, dcfg
}
