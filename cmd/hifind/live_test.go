package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"strings"
	"testing"
	"time"

	hifind "github.com/hifind/hifind"
	"github.com/hifind/hifind/internal/netflow"
	"github.com/hifind/hifind/internal/netmodel"
	"github.com/hifind/hifind/internal/telemetry"
	"github.com/hifind/hifind/internal/trace"
)

// TestLiveDetectsFloodOverLoopback drives live mode end to end: an
// exporter ships a spoofed-flood trace to runLive as NetFlow v5 over
// loopback UDP, one trace interval per detection interval, while a
// poller runs the health probes concurrently as the /healthz handler
// would. Cancelling the context must flush the last interval, fail the
// collector probe and leave the drop counter on the registry.
func TestLiveDetectsFloodOverLoopback(t *testing.T) {
	const interval = 200 * time.Millisecond
	reg := telemetry.NewRegistry()
	health := telemetry.NewHealth()
	det, err := hifind.New(
		hifind.WithCompactSketches(),
		hifind.WithInterval(interval),
		// 300 SYN/s over 200 ms is the paper's 60 un-responded SYNs per
		// interval.
		hifind.WithThresholdPerSecond(300),
		hifind.WithTelemetry(reg),
	)
	if err != nil {
		t.Fatal(err)
	}
	victim := netmodel.MustParseIPv4("129.105.77.7")
	cfg := trace.Config{
		Seed:            77,
		Start:           time.Date(2005, 5, 10, 0, 0, 0, 0, time.UTC),
		Interval:        time.Minute,
		Intervals:       8,
		InternalPrefix:  netmodel.MustParseIPv4("129.105.0.0"),
		Servers:         20,
		BackgroundFlows: 200,
		FailRate:        0.04,
		Attacks: []trace.Attack{{
			Type: trace.SYNFlood, Spoofed: true, Victim: victim, Ports: []uint16{25},
			StartInterval: 2, EndInterval: 7, Rate: 500, ResponseRate: 0.1,
			Cause: "spoofed flood",
		}},
	}
	gen, err := trace.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	// Closing the read side fails runLive's later writes instead of
	// blocking them, so it can return once nothing reads its output.
	t.Cleanup(func() { cancel(); pr.Close() })
	done := make(chan error, 1)
	go func() {
		err := runLive(ctx, pw, det, "127.0.0.1:0", []string{"129.105.0.0/16"}, interval, "", reg, health)
		pw.Close()
		done <- err
	}()
	pollCtx, stopPoll := context.WithCancel(context.Background())
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		for {
			select {
			case <-pollCtx.Done():
				return
			case <-time.After(time.Millisecond):
				health.Check()
			}
		}
	}()
	t.Cleanup(func() { stopPoll(); <-polled })

	var exporter *netflow.Exporter
	sent := 0
	sendInterval := func() {
		pkts, err := gen.GenerateInterval(sent)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range netflow.FromPackets(pkts, cfg.Start) {
			if err := exporter.Add(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := exporter.Flush(); err != nil {
			t.Fatal(err)
		}
		sent++
	}
	// Each report line closes an interval; the next trace interval goes
	// out right after it, so trace and detection intervals line up.
	lines := bufio.NewScanner(pr)
	alerted, reports := false, 0
	for !alerted && reports < cfg.Intervals+3 && lines.Scan() {
		line := lines.Text()
		switch {
		case strings.HasPrefix(line, "listening for NetFlow v5 on "):
			addr, _, _ := strings.Cut(strings.TrimPrefix(line, "listening for NetFlow v5 on "), ",")
			if exporter, err = netflow.NewExporter(addr); err != nil {
				t.Fatal(err)
			}
			defer exporter.Close()
			sendInterval()
		case strings.HasPrefix(line, "interval "):
			if !strings.Contains(line, " dropped, ") {
				t.Fatalf("report line has no drop count: %q", line)
			}
			reports++
			if sent < cfg.Intervals {
				sendInterval()
			}
		case strings.Contains(line, "ALERT SYN flood") && strings.Contains(line, victim.String()+":25"):
			alerted = true
		}
	}
	if !alerted {
		t.Errorf("no flood alert for %s:25 after %d reports", victim, reports)
	}

	cancel()
	pr.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("runLive: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("runLive did not return after cancellation")
	}

	results, ok := health.Check()
	if ok || len(results) != 1 || results[0].Component != "collector" || results[0].OK {
		t.Errorf("collector probe after shutdown = %+v, want failing", results)
	}
	var metrics bytes.Buffer
	if err := reg.WritePrometheus(&metrics); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics.String(), "\nhifind_live_flows_dropped_total ") {
		t.Error("hifind_live_flows_dropped_total missing from the registry")
	}
}

// TestLiveSinkCountsDrops offers the collector callback a full queue:
// the flow is dropped and counted, while a record that does not cross
// the edge is filtered without counting as a drop.
func TestLiveSinkCountsDrops(t *testing.T) {
	edge, err := netmodel.NewEdgeNetwork("129.105.0.0/16")
	if err != nil {
		t.Fatal(err)
	}
	flows := make(chan netmodel.FlowRecord, 1)
	dropped := telemetry.NewRegistry().Counter("hifind_live_flows_dropped_total", "")
	sink := liveSink(edge, flows, dropped)
	syn := netflow.Record{
		SrcAddr: netmodel.MustParseIPv4("8.0.0.1"), DstAddr: netmodel.MustParseIPv4("129.105.9.9"),
		SrcPort: 2000, DstPort: 25, Packets: 1, Octets: 40,
		TCPFlags: uint8(netmodel.FlagSYN), Protocol: 6,
	}
	sink(syn, netflow.Header{})
	if len(flows) != 1 || dropped.Value() != 0 {
		t.Fatalf("queued %d, dropped %d; want 1 queued, 0 dropped", len(flows), dropped.Value())
	}
	sink(syn, netflow.Header{})
	if len(flows) != 1 || dropped.Value() != 1 {
		t.Fatalf("full queue: queued %d, dropped %d; want 1 and 1", len(flows), dropped.Value())
	}
	outside := syn
	outside.DstAddr = netmodel.MustParseIPv4("8.0.0.2")
	sink(outside, netflow.Header{})
	if dropped.Value() != 1 {
		t.Errorf("a record outside the edge counted as a drop: %d", dropped.Value())
	}
}
