// Command hifind runs the HiFIND detector over a libpcap capture or a
// NetFlow v5 export file and prints the alerts of every detection
// interval.
//
//	hifind -pcap trace.pcap -edge 129.105.0.0/16
//	hifind -netflow trace.nf5 -edge 129.105.0.0/16
//	hifind -listen 127.0.0.1:2055 -edge 129.105.0.0/16   # live UDP NetFlow
//	hifind -pcap trace.pcap -edge 10.0.0.0/8 -threshold 2 -phases
//	hifind -pcap trace.pcap -edge 10.0.0.0/8 -http :9090 -linger
//
// The capture's own timestamps drive the measurement intervals (one
// minute by default), so a day-long capture yields 1440 detection rounds
// exactly as the paper's on-site experiment did.
//
// With -http the process serves /metrics (Prometheus text), /healthz,
// /livez, /debug/vars and /debug/pprof on the given address. With -json
// detection results are emitted as NDJSON events on stdout instead of
// the human-readable lines. SIGINT/SIGTERM shut down gracefully: the
// partial final interval is flushed through detection and the capture
// or NetFlow source is closed cleanly.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"
	"os/signal"
	"slices"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	hifind "github.com/hifind/hifind"
	"github.com/hifind/hifind/internal/netflow"
	"github.com/hifind/hifind/internal/netmodel"
	"github.com/hifind/hifind/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hifind:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		pcapPath  = flag.String("pcap", "", "libpcap capture to analyze")
		nfPath    = flag.String("netflow", "", "length-delimited NetFlow v5 export file to analyze")
		listen    = flag.String("listen", "", "UDP address to receive live NetFlow v5 exports on (runs until interrupted)")
		edge      = flag.String("edge", "", "comma-separated CIDRs of the monitored network (required)")
		interval  = flag.Duration("interval", time.Minute, "measurement interval")
		threshold = flag.Float64("threshold", 1, "detection threshold in unresponded SYNs per second")
		alpha     = flag.Float64("alpha", 0.5, "EWMA smoothing constant")
		compact   = flag.Bool("compact", false, "use compact (≈1.5MB) sketches instead of the paper's 13.2MB set")
		phases    = flag.Bool("phases", false, "print raw and after-classification alerts too")
		statePath = flag.String("state", "", "checkpoint file: loaded at start if present, saved after every interval (requires -listen)")
		httpAddr  = flag.String("http", "", "serve /metrics, /healthz, /debug/vars and /debug/pprof on this address (e.g. :9090)")
		jsonOut   = flag.Bool("json", false, "emit alerts and interval summaries as NDJSON on stdout")
		linger    = flag.Bool("linger", false, "after an offline replay, keep the -http endpoints up until interrupted")
		detectors = flag.String("detectors", "", "comma-separated auxiliary detectors: burst (single-window SYN pulses under the interval threshold), persist (sources probing below the threshold interval after interval), reflection (unsolicited inbound SYN/ACK backscatter)")
	)
	af := registerAggregateFlags()
	flag.Parse()
	// Only the live loop checkpoints; anywhere else -state would be
	// silently ignored.
	if *statePath != "" && *listen == "" {
		return fmt.Errorf("-state requires -listen: only live mode checkpoints")
	}
	auxOpts, auxNames, err := parseDetectors(*detectors)
	if err != nil {
		return err
	}

	// Multi-router aggregation modes run their own loop: -collect is the
	// central merge-and-detect site, -report an edge router shipping its
	// sketch state. Neither uses the single-process replay path below.
	if af.collect != "" || af.report != "" {
		if af.report != "" && (*pcapPath == "" || *edge == "") {
			return fmt.Errorf("-report requires -pcap and -edge")
		}
		if len(auxNames) > 0 {
			return fmt.Errorf("-detectors is not supported with -collect or -report")
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		reg := telemetry.NewRegistry()
		health := telemetry.NewHealth()
		if *httpAddr != "" {
			srv, err := telemetry.Serve(*httpAddr, reg, health)
			if err != nil {
				return err
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "telemetry on http://%s/metrics\n", srv.Addr())
		}
		if af.collect != "" {
			return runCollect(ctx, af, *compact, *threshold, *interval, *alpha, reg, health)
		}
		return runReport(ctx, af, *pcapPath, strings.Split(*edge, ","), *compact, *interval, reg)
	}

	inputs := 0
	for _, v := range []string{*pcapPath, *nfPath, *listen} {
		if v != "" {
			inputs++
		}
	}
	if inputs != 1 || *edge == "" {
		flag.Usage()
		return fmt.Errorf("exactly one of -pcap/-netflow/-listen plus -edge are required")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := []hifind.Option{
		hifind.WithInterval(*interval),
		hifind.WithThresholdPerSecond(*threshold),
		hifind.WithAlpha(*alpha),
	}
	if *compact {
		opts = append(opts, hifind.WithCompactSketches())
	}
	opts = append(opts, auxOpts...)
	reg := telemetry.NewRegistry()
	health := telemetry.NewHealth()
	opts = append(opts, hifind.WithTelemetry(reg))
	var sink *telemetry.JSONSink
	if *jsonOut {
		sink = telemetry.NewJSONSink(os.Stdout)
		opts = append(opts, hifind.WithAlertSink(sink))
	}
	det, err := hifind.New(opts...)
	if err != nil {
		return err
	}
	var srv *telemetry.Server
	if *httpAddr != "" {
		srv, err = telemetry.Serve(*httpAddr, reg, health)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "telemetry on http://%s/metrics\n", srv.Addr())
	}
	if *listen != "" {
		return runLive(ctx, os.Stdout, det, *listen, strings.Split(*edge, ","), *interval, *statePath, reg, health)
	}
	path := *pcapPath
	if path == "" {
		path = *nfPath
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	// Offline replay has no failure mode a probe could catch before the
	// process exits; the component exists so /healthz names the source.
	health.Register("source", func() error { return nil })

	auxNote := "none"
	if len(auxNames) > 0 {
		auxNote = strings.Join(auxNames, ",")
	}
	fmt.Printf("HiFIND: %0.1f MB of sketches, %v intervals, threshold %.1f SYN/s, detectors %s\n",
		float64(det.MemoryBytes())/(1<<20), *interval, *threshold, auxNote)
	if sink != nil {
		sink.Emit(telemetry.Event{Time: time.Now(), Kind: "startup", Fields: map[string]any{
			"memory_bytes":     det.MemoryBytes(),
			"interval_seconds": interval.Seconds(),
			"detectors":        auxNames,
		}})
	}
	in := bufio.NewReaderSize(f, 1<<20)
	var results []hifind.Result
	if *pcapPath != "" {
		results, err = hifind.ReplayPcapContext(ctx, in, strings.Split(*edge, ","), det)
	} else {
		results, err = hifind.ReplayNetFlowContext(ctx, in, strings.Split(*edge, ","), det)
	}
	interrupted := errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		return err
	}
	totalFinal := 0
	for _, res := range results {
		if *phases && !*jsonOut {
			for _, a := range res.Raw {
				fmt.Printf("interval %3d [raw]      %s\n", res.Interval, a)
			}
			for _, a := range res.AfterClassification {
				fmt.Printf("interval %3d [after-2D] %s\n", res.Interval, a)
			}
		}
		for _, a := range res.Final {
			if !*jsonOut {
				fmt.Printf("interval %3d ALERT %s\n", res.Interval, a)
			}
			totalFinal++
		}
	}
	if interrupted {
		fmt.Fprintln(os.Stderr, "interrupted: partial final interval flushed")
	}
	fmt.Printf("%d intervals analyzed, %d final alerts\n", len(results), totalFinal)
	if *linger && srv != nil && !interrupted {
		fmt.Fprintln(os.Stderr, "replay done; serving telemetry until interrupted")
		<-ctx.Done()
	}
	return nil
}

// auxDetectors maps each -detectors name to the facade option that
// enables it.
var auxDetectors = map[string]func() hifind.Option{
	"burst":      hifind.WithBurstDetection,
	"persist":    hifind.WithPersistentFlowDetection,
	"reflection": hifind.WithReflectionDetection,
}

// parseDetectors resolves a -detectors list to facade options and the
// names it enabled, in the order given, each once.
func parseDetectors(list string) ([]hifind.Option, []string, error) {
	var opts []hifind.Option
	names := []string{}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" || slices.Contains(names, name) {
			continue
		}
		enable, ok := auxDetectors[name]
		if !ok {
			return nil, nil, fmt.Errorf("-detectors: unknown detector %q (valid: burst, persist, reflection)", name)
		}
		opts = append(opts, enable())
		names = append(names, name)
	}
	return opts, names, nil
}

// flowQueueLen is the capacity of the live mode's collector→detector
// flow queue. It holds the records of about 34 full NetFlow v5
// datagrams (30 records each) that arrive while the detector is busy
// rotating an interval; flows are dropped and counted
// (hifind_live_flows_dropped_total), not blocked on, when it is full.
const flowQueueLen = 1024

// liveSink builds the collector callback of live mode: it converts each
// record that crosses the edge and queues it for the detector. When the
// queue is full the flow is dropped rather than blocking the socket, and
// dropped counts it.
func liveSink(edge *netmodel.EdgeNetwork, flows chan<- netmodel.FlowRecord,
	dropped *telemetry.Counter) func(netflow.Record, netflow.Header) {
	return func(r netflow.Record, hdr netflow.Header) {
		if fr, ok := netflow.ToFlowRecord(r, hdr, edge); ok {
			select {
			case flows <- fr:
			default:
				dropped.Inc()
			}
		}
	}
}

// runLive receives NetFlow v5 over UDP and detects on wall-clock
// intervals until ctx is cancelled, writing its progress and alerts to
// out. The collector goroutine forwards decoded flows over a channel so
// the detector stays single-threaded. On cancellation the final partial
// interval is flushed through detection before the source closes.
func runLive(ctx context.Context, out io.Writer, det *hifind.Detector, addr string, edgeCIDRs []string,
	interval time.Duration, statePath string, reg *telemetry.Registry, health *telemetry.Health) error {
	edge, err := netmodel.NewEdgeNetwork(edgeCIDRs...)
	if err != nil {
		return err
	}
	if statePath != "" {
		if data, err := os.ReadFile(statePath); err == nil {
			if err := det.LoadState(data); err != nil {
				return fmt.Errorf("load state %s: %w", statePath, err)
			}
			fmt.Fprintf(out, "resumed from %s\n", statePath)
		} else if !os.IsNotExist(err) {
			return err
		}
	}
	flows := make(chan netmodel.FlowRecord, flowQueueLen)
	dropped := reg.Counter("hifind_live_flows_dropped_total",
		"live NetFlow records dropped because the detector's flow queue was full")
	collector, err := netflow.Listen(addr, liveSink(edge, flows, dropped), netflow.WithTelemetry(reg))
	if err != nil {
		return err
	}
	defer collector.Close()
	// The probe runs on the /healthz goroutine while the loop below
	// closes the collector.
	var closed atomic.Bool
	health.Register("collector", func() error {
		if closed.Load() {
			return fmt.Errorf("netflow collector closed")
		}
		return nil
	})
	fmt.Fprintf(out, "listening for NetFlow v5 on %s, %v intervals; Ctrl-C to stop\n",
		collector.Addr(), interval)

	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	report := func(res hifind.Result) {
		pkts, recs, malformed := collector.Stats()
		fmt.Fprintf(out, "interval %d: %d datagrams, %d records, %d malformed, %d dropped, %d alerts\n",
			res.Interval, pkts, recs, malformed, dropped.Value(), len(res.Final))
		for _, a := range res.Final {
			fmt.Fprintf(out, "  ALERT %s\n", a)
		}
	}
	for {
		select {
		case fr := <-flows:
			det.ObserveFlow(toFlow(fr))
		case <-ticker.C:
			res, err := det.EndInterval()
			if err != nil {
				return err
			}
			report(res)
			if statePath != "" {
				data, err := det.SaveState()
				if err != nil {
					return err
				}
				if err := os.WriteFile(statePath, data, 0o644); err != nil {
					return err
				}
			}
		case <-ctx.Done():
			fmt.Fprintln(out, "\nshutting down")
			// Stop the source first so no flow arrives after the final
			// detection, then flush the partial interval — the tail of
			// the stream is detected, not dropped.
			if err := collector.Close(); err != nil {
				return err
			}
			closed.Store(true)
			for {
				select {
				case fr := <-flows:
					det.ObserveFlow(toFlow(fr))
					continue
				default:
				}
				break
			}
			res, err := det.EndInterval()
			if err != nil {
				return err
			}
			report(res)
			return nil
		}
	}
}

// toFlow converts a decoded NetFlow record to the facade's flow shape.
func toFlow(fr netmodel.FlowRecord) hifind.Flow {
	return hifind.Flow{
		SrcIP:   netip.AddrFrom4(fr.SrcIP.Octets()),
		DstIP:   netip.AddrFrom4(fr.DstIP.Octets()),
		SrcPort: fr.SrcPort,
		DstPort: fr.DstPort,
		Dir:     hifind.Direction(fr.Dir),
		SYNs:    fr.SYNs,
		SYNACKs: fr.SYNACKs,
	}
}
