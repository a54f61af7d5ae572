package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"github.com/hifind/hifind/internal/netflow"
	"github.com/hifind/hifind/internal/netmodel"
	"github.com/hifind/hifind/internal/pcap"
	"github.com/hifind/hifind/internal/trace"
)

// edgeCIDR is the monitored network of every workload (the NU preset's
// /16); it is the only value besides the capture path the program is told.
const edgeCIDR = "129.105.0.0/16"

// Workload sizes. The driver's time cap sets them: 114 runs with their
// set-up in 3420 s. Every capture holds 72 generated intervals, so that
// three repetitions pool 204 detection intervals past warm-up, and
// replays in about three seconds or more on the container this was
// written on; dos-spoofed-pcap takes ten, because the flood's first
// interval runs reverse inference into its operation budget (README.md,
// "Workloads"). The smoke test shrinks everything.
const (
	intervals       = 72
	edgeBackground  = 8500 // inbound benign flows per interval
	edgeOutbound    = 1700
	lightBackground = 600 // storm and dos: the detection side is the subject
	lightOutbound   = 150
	stormScale      = 6
	dosOnset        = 8
	dosEnd          = 19
	dosRate         = 20000 // spoofed SYNs per interval on one victim
	dosResponseRate = 0.01
)

// workload is one traffic mix. Workloads vary the traffic, never the
// program's configuration: every one is replayed with default flags.
type workload struct {
	name string
	// netflow exports the trace as NetFlow v5 records instead of pcap.
	netflow bool
	config  func(seed int64, short bool) trace.Config
}

// Smoke-test sizes (short): the fewest intervals the NU preset accepts
// and a fifth of its attacks.
const shortIntervals = 10

func shortScale(short bool) float64 {
	if short {
		return 0.2
	}
	return 1
}

func edgeConfig(seed int64, short bool, zipf float64) trace.Config {
	n, bg, out := intervals, edgeBackground, edgeOutbound
	if short {
		n, bg, out = shortIntervals, 400, 80
	}
	cfg := trace.NUConfig(seed, n, shortScale(short))
	cfg.BackgroundFlows = bg
	cfg.OutboundFlows = out
	cfg.ZipfSkew = zipf
	return cfg
}

var workloads = []workload{
	{
		name: "edge-uniform-pcap",
		config: func(seed int64, short bool) trace.Config {
			return edgeConfig(seed, short, 0)
		},
	},
	{
		name: "edge-zipf-pcap",
		config: func(seed int64, short bool) trace.Config {
			return edgeConfig(seed, short, 1.5)
		},
	},
	{
		name:    "edge-zipf-netflow",
		netflow: true,
		config: func(seed int64, short bool) trace.Config {
			return edgeConfig(seed, short, 1.5)
		},
	},
	{
		name: "attack-storm-pcap",
		config: func(seed int64, short bool) trace.Config {
			if short {
				return trace.NUConfig(seed, shortIntervals, 1)
			}
			cfg := trace.NUConfig(seed, intervals, stormScale)
			cfg.BackgroundFlows, cfg.OutboundFlows = lightBackground, lightOutbound
			return cfg
		},
	},
	{
		name: "dos-spoofed-pcap",
		config: func(seed int64, short bool) trace.Config {
			n, rate, onset, end := intervals, dosRate, dosOnset, dosEnd
			if short {
				n, rate, onset, end = shortIntervals, 600, 3, shortIntervals-1
			}
			cfg := trace.NUConfig(seed, n, shortScale(short))
			if !short {
				cfg.BackgroundFlows, cfg.OutboundFlows = lightBackground, lightOutbound
			}
			cfg.Attacks = append(cfg.Attacks, trace.Attack{
				Type:          trace.SYNFlood,
				Spoofed:       true,
				Victim:        netmodel.MustParseIPv4("129.105.200.17"),
				Ports:         []uint16{80},
				StartInterval: onset,
				EndInterval:   end,
				Rate:          rate,
				ResponseRate:  dosResponseRate,
				Cause:         "benchmark spoofed DoS",
			})
			return cfg
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// capture describes one generated input file and its ground truth.
type capture struct {
	Path      string `json:"-"`
	Format    string `json:"format"`
	Packets   int64  `json:"packets"`
	Records   int64  `json:"records"`   // NetFlow records; 0 for pcap
	Intervals int    `json:"intervals"` // generated
	// ExpectedIntervals is how many detection rounds a replay of the file
	// must report: trailing handshake packets spill past the last
	// generated interval's end and open one more.
	ExpectedIntervals int            `json:"expected_intervals"`
	Bytes             int64          `json:"bytes"`
	Attacks           []trace.Attack `json:"-"`
}

// roundCounter applies the replay loop's boundary rule (replay.go) to a
// timestamp stream: the first event anchors interval 0, and every event
// at least one interval past the current start closes rounds until it
// fits.
type roundCounter struct {
	interval time.Duration
	start    time.Time
	rounds   int
}

func (r *roundCounter) see(ts time.Time) {
	if r.rounds == 0 {
		r.start, r.rounds = ts, 1
	}
	for ts.Sub(r.start) >= r.interval {
		r.start = r.start.Add(r.interval)
		r.rounds++
	}
}

// generate builds the workload's trace from seed and writes it to path.
// The same seed gives the same bytes.
func (w workload) generate(seed int64, short bool, path string) (capture, error) {
	cfg := w.config(seed, short)
	gen, err := trace.New(cfg)
	if err != nil {
		return capture{}, err
	}
	f, err := os.Create(path)
	if err != nil {
		return capture{}, err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	c := capture{Path: path, Format: "pcap", Intervals: cfg.Intervals, Attacks: gen.Attacks()}
	rounds := roundCounter{interval: cfg.Interval}
	if w.netflow {
		c.Format = "netflow"
		nw := netflow.NewWriter(bw, cfg.Start)
		for i := 0; i < cfg.Intervals; i++ {
			pkts, err := gen.GenerateInterval(i)
			if err != nil {
				return capture{}, err
			}
			c.Packets += int64(len(pkts))
			for _, rec := range netflow.FromPackets(pkts, cfg.Start) {
				c.Records++
				ts := cfg.Start.Add(time.Duration(rec.LastMs) * time.Millisecond)
				rounds.see(ts)
				if err := nw.Add(rec, ts); err != nil {
					return capture{}, err
				}
			}
			if err := nw.Flush(); err != nil {
				return capture{}, err
			}
		}
	} else {
		pw := pcap.NewWriter(bw)
		err := gen.Stream(func(p netmodel.Packet) error {
			c.Packets++
			rounds.see(p.Timestamp)
			return pw.WritePacket(p)
		})
		if err != nil {
			return capture{}, err
		}
	}
	if err := bw.Flush(); err != nil {
		return capture{}, err
	}
	// Write-back of a capture this size would otherwise run under the
	// first timed repetitions; syncing charges it to set-up.
	if err := f.Sync(); err != nil {
		return capture{}, err
	}
	if err := f.Close(); err != nil {
		return capture{}, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return capture{}, err
	}
	c.Bytes = st.Size()
	c.ExpectedIntervals = rounds.rounds
	if c.Packets == 0 {
		return capture{}, fmt.Errorf("workload %s: empty trace", w.name)
	}
	return c, nil
}

// inputFlag is the program flag that names the capture.
func (c capture) inputFlag() string {
	if c.Format == "netflow" {
		return "-netflow"
	}
	return "-pcap"
}
