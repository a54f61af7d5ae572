package aggregate

import (
	"bytes"
	"testing"
	"time"

	"github.com/hifind/hifind/internal/core"
	"github.com/hifind/hifind/internal/netmodel"
	"github.com/hifind/hifind/internal/telemetry"
	"github.com/hifind/hifind/internal/trace"
)

func traceConfig(seed int64, intervals int) trace.Config {
	cfg := trace.Config{
		Seed:            seed,
		Start:           time.Date(2005, 5, 10, 0, 0, 0, 0, time.UTC),
		Interval:        time.Minute,
		Intervals:       intervals,
		InternalPrefix:  netmodel.MustParseIPv4("129.105.0.0"),
		Servers:         30,
		BackgroundFlows: 800,
		OutboundFlows:   150,
		FailRate:        0.04,
	}
	cfg.Attacks = []trace.Attack{{
		Type: trace.SYNFlood, Spoofed: true,
		Victim: netmodel.MustParseIPv4("129.105.200.1"), Ports: []uint16{80},
		StartInterval: 2, EndInterval: intervals - 1, Rate: 600, ResponseRate: 0.1,
		Cause: "flood",
	}}
	return cfg
}

func TestSplitter(t *testing.T) {
	if _, err := NewSplitter(0, 1); err == nil {
		t.Error("0 routers accepted")
	}
	s, err := NewSplitter(3, 42)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 3)
	for i := 0; i < 9000; i++ {
		r := s.Route(netmodel.Packet{})
		if r < 0 || r >= 3 {
			t.Fatalf("route %d out of range", r)
		}
		counts[r]++
	}
	for i, c := range counts {
		if c < 2500 || c > 3500 {
			t.Errorf("router %d got %d/9000 packets, want ≈3000", i, c)
		}
	}
}

// TestAggregatedDetectionMatchesSingleRouter reproduces §5.3.2: split the
// trace per-packet over three routers, ship the serialized recorders to a
// collector over real TCP via Reporters, and verify detection equals a
// single router seeing everything.
func TestAggregatedDetectionMatchesSingleRouter(t *testing.T) {
	rcfg := core.TestRecorderConfig(0x5151)
	dcfg := core.DetectorConfig{Threshold: 60}
	const intervals = 6

	// Reference: single detector sees everything.
	single, err := core.NewDetector(rcfg, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := trace.New(traceConfig(31, intervals))
	if err != nil {
		t.Fatal(err)
	}

	// Aggregated: three router recorders + reporters + collector + detector.
	collector, err := NewCollector(3, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer collector.Close()
	aggDet, err := core.NewDetector(rcfg, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	routers := make([]*core.Recorder, 3)
	reporters := make([]*Reporter, 3)
	for i := range routers {
		if routers[i], err = core.NewRecorder(rcfg); err != nil {
			t.Fatal(err)
		}
		reporters[i] = NewReporter(uint32(i), collector.Addr())
		defer reporters[i].Close()
	}
	split, err := NewSplitter(3, 99)
	if err != nil {
		t.Fatal(err)
	}

	var singleAlerts, aggAlerts []core.Alert
	for iv := 0; iv < intervals; iv++ {
		pkts, err := gen.GenerateInterval(iv)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkts {
			single.Observe(p)
			routers[split.Route(p)].Observe(p)
		}
		sres, err := single.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		singleAlerts = append(singleAlerts, sres.Final...)

		// Report enqueues a marshaled snapshot, so resetting immediately
		// afterwards is safe even though delivery is asynchronous.
		for i, r := range reporters {
			if err := r.Report(uint64(iv), routers[i]); err != nil {
				t.Fatalf("router %d report: %v", i, err)
			}
			routers[i].Reset()
		}
		if _, err := collector.CollectEpoch(uint64(iv), nil, aggDet.Recorder()); err != nil {
			t.Fatal(err)
		}
		ares, err := aggDet.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		aggAlerts = append(aggAlerts, ares.Final...)
	}

	key := func(alerts []core.Alert) map[core.AlertKey]bool {
		m := map[core.AlertKey]bool{}
		for _, a := range alerts {
			m[a.Key()] = true
		}
		return m
	}
	sk, ak := key(singleAlerts), key(aggAlerts)
	if len(sk) == 0 {
		t.Fatal("single-router reference detected nothing; test is vacuous")
	}
	if len(sk) != len(ak) {
		t.Fatalf("aggregated found %d distinct alerts, single found %d", len(ak), len(sk))
	}
	for k := range sk {
		if !ak[k] {
			t.Errorf("aggregated detection missing alert %+v", k)
		}
	}
}

// TestCollectEpochRejectsBadPayload: an epoch whose frames include one
// payload that fails validation returns an error and leaves the
// receiving recorder byte-identical — neither the good payload nor the
// valid blocks in front of the bad payload's truncated tail are added.
func TestCollectEpochRejectsBadPayload(t *testing.T) {
	rcfg := stressRecorderConfig(0x1)
	collector, err := NewCollector(2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer collector.Close()
	good := recorderPayload(t, rcfg, observePackets(0, 0, 20))
	bad := recorderPayload(t, rcfg, observePackets(2, 0, 20))
	for id, p := range [][]byte{good, bad[:len(bad)-1]} {
		rep := NewReporter(uint32(id), collector.Addr())
		defer rep.Close()
		if err := rep.ReportPayload(0, p); err != nil {
			t.Fatal(err)
		}
	}
	into := newRecorder(t, rcfg)
	if err := into.AddBinary(recorderPayload(t, rcfg, observePackets(1, 0, 20))); err != nil {
		t.Fatal(err)
	}
	before, err := into.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := collector.CollectEpoch(0, nil, into); err == nil {
		t.Fatal("garbage payload accepted")
	}
	after, err := into.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Error("a rejected epoch changed the receiving recorder")
	}
}

// TestCollectorFutureAndStaleFrames pins the epoch-relative frame
// handling: a frame for an epoch ahead of the one being collected is
// buffered and merged when its epoch opens, a frame for a closed epoch
// is counted stale and dropped, and a deadline with nothing gathered
// reports ErrNoFrames.
func TestCollectorFutureAndStaleFrames(t *testing.T) {
	rcfg := core.TestRecorderConfig(0x2)
	reg := telemetry.NewRegistry()
	collector, err := NewCollector(1, "127.0.0.1:0", WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer collector.Close()
	rep := NewReporter(0, collector.Addr())
	defer rep.Close()
	rec, err := core.NewRecorder(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	rec.Observe(netmodel.Packet{SrcIP: 1, DstIP: 2, DstPort: 80,
		Flags: netmodel.FlagSYN, Dir: netmodel.Inbound})
	payload, err := rec.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	// The router runs ahead: it reports epoch 5 while the collector still
	// collects epoch 0.
	if err := rep.ReportPayload(5, payload); err != nil {
		t.Fatal(err)
	}
	timer := time.NewTimer(300 * time.Millisecond)
	defer timer.Stop()
	merged := newRecorder(t, rcfg)
	if _, err := collector.CollectEpoch(0, timer.C, merged); err == nil {
		t.Error("epoch 0 with no frames should report ErrNoFrames")
	}
	// The buffered epoch-5 frame merges once its epoch opens.
	info, err := collector.CollectEpoch(5, nil, merged)
	if err != nil {
		t.Fatal(err)
	}
	if info.Partial || len(info.Contributors) != 1 {
		t.Errorf("epoch 5: info = %+v, want full with 1 contributor", info)
	}
	if merged.Packets() != 1 {
		t.Errorf("epoch 5 merged %d packets, want 1", merged.Packets())
	}

	// A report for the now-closed epoch 1 is stale; epoch 6 still works.
	if err := rep.ReportPayload(1, payload); err != nil {
		t.Fatal(err)
	}
	if err := rep.ReportPayload(6, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := collector.CollectEpoch(6, nil, merged); err != nil {
		t.Fatal(err)
	}
	stale := reg.Counter("aggregate_stale_frames_total", "").Value()
	if stale != 1 {
		t.Errorf("aggregate_stale_frames_total = %d, want 1", stale)
	}
}

func TestCollectorCloseUnblocks(t *testing.T) {
	rcfg := core.TestRecorderConfig(0x3)
	collector, err := NewCollector(2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	into := newRecorder(t, rcfg)
	done := make(chan error, 1)
	go func() {
		_, err := collector.CollectEpoch(0, nil, into)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := collector.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Error("CollectEpoch returned nil after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("CollectEpoch did not unblock on Close")
	}
}

// TestCollectEpochToleratesDeadRouter: when a router dies mid-interval,
// the deadline closes the epoch with whatever arrived in time — detection
// over most of the edge beats no detection, and sketch linearity makes
// the partial merge exactly the traffic the surviving routers saw.
func TestCollectEpochToleratesDeadRouter(t *testing.T) {
	rcfg := core.TestRecorderConfig(0x9)
	collector, err := NewCollector(3, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer collector.Close()
	// Only two of the three expected routers connect and report.
	for id := uint32(0); id < 2; id++ {
		rep := NewReporter(id, collector.Addr())
		defer rep.Close()
		rec, err := core.NewRecorder(rcfg)
		if err != nil {
			t.Fatal(err)
		}
		rec.Observe(netmodel.Packet{SrcIP: 1 + netmodel.IPv4(id), DstIP: 2, DstPort: 80,
			Flags: netmodel.FlagSYN, Dir: netmodel.Inbound})
		if err := rep.Report(0, rec); err != nil {
			t.Fatal(err)
		}
	}
	merged := newRecorder(t, rcfg)
	timer := time.NewTimer(2 * time.Second)
	defer timer.Stop()
	info, err := collector.CollectEpoch(0, timer.C, merged)
	if err != nil {
		t.Fatal(err)
	}
	if contributed := len(info.Contributors); contributed != 2 {
		t.Errorf("contributed = %d, want 2", contributed)
	}
	if merged.Packets() != 2 {
		t.Errorf("merged packets = %d, want 2", merged.Packets())
	}
}

func TestCollectEpochAllDead(t *testing.T) {
	rcfg := core.TestRecorderConfig(0xA)
	collector, err := NewCollector(2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer collector.Close()
	timer := time.NewTimer(50 * time.Millisecond)
	defer timer.Stop()
	if _, err := collector.CollectEpoch(0, timer.C, newRecorder(t, rcfg)); err == nil {
		t.Error("zero contributions accepted")
	}
}
