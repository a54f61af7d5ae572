// Multi-router aggregation modes: -collect runs the central aggregation
// site, -report runs one edge router shipping its per-interval sketch
// state. Together they put the fault-tolerant aggregation path (frame
// codec, reconnecting reporters, partial intervals) behind the CLI so
// the smoke test — and a curious operator — can run a multi-process
// deployment on one machine:
//
//	hifind -collect 127.0.0.1:7400 -routers 3 -epochs 6 -compact
//	hifind -report 127.0.0.1:7400 -router 0 -routers 3 -pcap t.pcap -edge 129.105.0.0/16 -epochs 6 -compact
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/hifind/hifind/internal/aggregate"
	"github.com/hifind/hifind/internal/core"
	"github.com/hifind/hifind/internal/netmodel"
	"github.com/hifind/hifind/internal/pcap"
	"github.com/hifind/hifind/internal/telemetry"
)

// sketchSeed must match across every reporter and the collector — merged
// sketches are only meaningful over identical hash functions. It is the
// facade's default seed.
const sketchSeed = 0x48694649

// aggregateFlags holds the multi-router mode flags, registered alongside
// the main flag set.
type aggregateFlags struct {
	collect    string
	report     string
	routers    int
	routerID   int
	epochs     int
	startEpoch int
	pace       time.Duration
	deadline   time.Duration
}

func registerAggregateFlags() *aggregateFlags {
	af := &aggregateFlags{}
	flag.StringVar(&af.collect, "collect", "", "run the aggregation collector, listening for router reports on this address")
	flag.StringVar(&af.report, "report", "", "run as an edge-router reporter, shipping interval state to this collector address")
	flag.IntVar(&af.routers, "routers", 3, "number of routers: (-collect) expected per interval, (-report) in the capture split, selecting this router's share")
	flag.IntVar(&af.routerID, "router", 0, "(-report) this router's id")
	flag.IntVar(&af.epochs, "epochs", 6, "how many interval epochs to run")
	flag.IntVar(&af.startEpoch, "start-epoch", 0, "(-report) first epoch to report (a restarted router skips what it missed)")
	flag.DurationVar(&af.pace, "pace", 0, "(-report) real-time delay between epoch reports (0 = as fast as possible)")
	flag.DurationVar(&af.deadline, "deadline", 10*time.Second, "(-collect) per-epoch merge deadline before closing the interval partial")
	return af
}

// aggregateRecorderConfig mirrors the facade's sketch-size choice.
func aggregateRecorderConfig(compact bool) core.RecorderConfig {
	if compact {
		return core.TestRecorderConfig(sketchSeed)
	}
	return core.PaperRecorderConfig(sketchSeed)
}

// runCollect is the central site: accept router connections, merge one
// epoch at a time (closing partial at the deadline), detect on the
// merged state, and report per-epoch outcomes on stdout.
func runCollect(ctx context.Context, af *aggregateFlags, compact bool,
	threshold float64, interval time.Duration, alpha float64,
	reg *telemetry.Registry, health *telemetry.Health) error {
	rcfg := aggregateRecorderConfig(compact)
	collector, err := aggregate.NewCollector(af.routers, af.collect,
		aggregate.WithTelemetry(reg))
	if err != nil {
		return err
	}
	defer collector.Close()
	health.Register("aggregate", func() error { return nil })
	det, err := core.NewDetector(rcfg, core.DetectorConfig{
		Threshold: threshold * interval.Seconds(),
		Alpha:     alpha,
	})
	if err != nil {
		return err
	}
	fmt.Printf("collecting from %d routers on %s, %d epochs, deadline %v\n",
		af.routers, collector.Addr(), af.epochs, af.deadline)

	// The context closes collection early on SIGINT: stop feeds every
	// pending CollectEpoch deadline.
	stop := make(chan time.Time)
	go func() {
		<-ctx.Done()
		close(stop)
	}()
	for e := 0; e < af.epochs; e++ {
		timer := time.NewTimer(af.deadline)
		deadline := make(chan time.Time, 1)
		done := make(chan struct{})
		go func() {
			defer timer.Stop()
			select {
			case tm := <-timer.C:
				deadline <- tm
			case <-stop:
				deadline <- time.Time{}
			case <-done:
			}
		}()
		info, err := collector.CollectEpoch(uint64(e), deadline, det.Recorder())
		close(done)
		if err != nil {
			if errors.Is(err, aggregate.ErrNoFrames) {
				fmt.Printf("epoch %d: 0/%d routers, interval lost\n", e, af.routers)
				if ctx.Err() != nil {
					break
				}
				continue
			}
			return err
		}
		res, err := det.EndIntervalWithPartial(info.Partial)
		if err != nil {
			return err
		}
		fmt.Printf("epoch %d: %d/%d routers, partial=%v, %d alerts\n",
			e, len(info.Contributors), af.routers, info.Partial, len(res.Final))
		for _, a := range res.Final {
			flag := ""
			if a.Partial {
				flag = " [partial]"
			}
			fmt.Printf("  ALERT%s %s\n", flag, a)
		}
		if ctx.Err() != nil {
			break
		}
	}
	if err := collector.Close(); err != nil {
		return err
	}
	fmt.Printf("collector done: reconnects=%d partial_intervals=%d corrupt_frames=%d stale_frames=%d\n",
		reg.Counter("aggregate_reconnects_total", "").Value(),
		reg.Counter("aggregate_partial_intervals_total", "").Value(),
		reg.Counter("aggregate_corrupt_frames_total", "").Value(),
		reg.Counter("aggregate_stale_frames_total", "").Value())
	return nil
}

// runReport is one edge router: replay this router's share of the
// capture (per-packet load-balanced split, deterministic across
// processes), end an interval per epoch, and ship the serialized state.
// A restarted router passes -start-epoch to skip the epochs it missed;
// the hello handshake prunes anything the collector has already closed.
func runReport(ctx context.Context, af *aggregateFlags, pcapPath string,
	edgeCIDRs []string, compact bool, interval time.Duration,
	reg *telemetry.Registry) error {
	if pcapPath == "" {
		return fmt.Errorf("-report requires -pcap")
	}
	if af.routerID < 0 || af.routerID >= af.routers {
		return fmt.Errorf("-router %d out of range for -routers %d", af.routerID, af.routers)
	}
	rcfg := aggregateRecorderConfig(compact)
	edge, err := netmodel.NewEdgeNetwork(edgeCIDRs...)
	if err != nil {
		return err
	}
	f, err := os.Open(pcapPath)
	if err != nil {
		return err
	}
	defer f.Close()
	pr, err := pcap.NewReader(f, edge)
	if err != nil {
		return err
	}
	// Same splitter seed in every reporter process: packet k goes to the
	// same router everywhere, so the shares partition the capture.
	split, err := aggregate.NewSplitter(af.routers, sketchSeed)
	if err != nil {
		return err
	}
	rec, err := core.NewRecorder(rcfg)
	if err != nil {
		return err
	}
	rep := aggregate.NewReporter(uint32(af.routerID), af.report,
		aggregate.WithReporterTelemetry(reg))
	defer rep.Close()

	// Epoch boundaries come from capture timestamps, like replay mode.
	var intervalStart time.Time
	epoch := 0
	flush := func() error {
		if epoch >= af.startEpoch {
			if err := rep.Report(uint64(epoch), rec); err != nil {
				return err
			}
			fmt.Printf("router %d: reported epoch %d\n", af.routerID, epoch)
			if af.pace > 0 {
				select {
				case <-time.After(af.pace):
				case <-ctx.Done():
				}
			}
		}
		rec.Reset()
		epoch++
		return nil
	}
	for epoch < af.epochs {
		pkt, err := pr.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return err
		}
		if intervalStart.IsZero() {
			intervalStart = pkt.Timestamp
		}
		for !pkt.Timestamp.Before(intervalStart.Add(interval)) {
			if err := flush(); err != nil {
				return err
			}
			intervalStart = intervalStart.Add(interval)
			if epoch >= af.epochs {
				break
			}
		}
		if epoch >= af.epochs || ctx.Err() != nil {
			break
		}
		if split.Route(pkt) == af.routerID {
			rec.Observe(pkt)
		}
	}
	// Flush the trailing partial interval.
	if epoch < af.epochs && ctx.Err() == nil {
		if err := flush(); err != nil {
			return err
		}
	}
	// Linger until the spill drains (bounded by context) so a fast replay
	// does not abandon its last reports.
	for rep.Pending() > 0 && ctx.Err() == nil {
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Printf("router %d done: sent=%d reconnects=%d dropped=%d\n",
		af.routerID, rep.Sent(), rep.Reconnects(), rep.SpillDropped()+rep.StaleDropped())
	return nil
}
