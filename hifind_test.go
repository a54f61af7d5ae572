package hifind_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/netip"
	"reflect"
	"testing"
	"time"

	hifind "github.com/hifind/hifind"
	"github.com/hifind/hifind/internal/netflow"
	"github.com/hifind/hifind/internal/pcap"
	"github.com/hifind/hifind/internal/trace"
)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

// synIn builds an inbound SYN via the public API.
func synIn(src, dst string, dport uint16) hifind.Packet {
	return hifind.Packet{
		SrcIP: addr(src), DstIP: addr(dst), SrcPort: 40000, DstPort: dport,
		SYN: true, Dir: hifind.Inbound,
	}
}

func synAckOut(server, client string, sport uint16) hifind.Packet {
	return hifind.Packet{
		SrcIP: addr(server), DstIP: addr(client), SrcPort: sport, DstPort: 40000,
		SYN: true, ACK: true, Dir: hifind.Outbound,
	}
}

func newCompact(t *testing.T, opts ...hifind.Option) *hifind.Detector {
	t.Helper()
	d, err := hifind.New(append([]hifind.Option{hifind.WithCompactSketches()}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestPublicFloodDetection(t *testing.T) {
	d := newCompact(t)
	// Interval 0: background only.
	for i := 0; i < 200; i++ {
		client := fmt.Sprintf("8.8.%d.%d", i/250, i%250+1)
		d.Observe(synIn(client, "129.105.1.1", 80))
		d.Observe(synAckOut("129.105.1.1", client, 80))
	}
	if _, err := d.EndInterval(); err != nil {
		t.Fatal(err)
	}
	// Intervals 1–3: flood of 300 unanswered SYNs/interval (threshold 60).
	var final []hifind.Alert
	for iv := 0; iv < 3; iv++ {
		for i := 0; i < 300; i++ {
			d.Observe(synIn(fmt.Sprintf("20.0.%d.%d", i/200, i%200+1), "129.105.1.1", 80))
		}
		res, err := d.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		final = append(final, res.Final...)
	}
	if len(final) == 0 {
		t.Fatal("flood not detected through the public API")
	}
	a := final[0]
	if a.Type != hifind.SYNFlood || a.Victim != addr("129.105.1.1") || a.Port != 80 {
		t.Errorf("alert = %+v", a)
	}
	if !a.Spoofed {
		t.Error("distributed flood should be unattributed")
	}
	if a.String() == "" {
		t.Error("empty alert rendering")
	}
}

func TestPublicOptionsValidation(t *testing.T) {
	bad := [][]hifind.Option{
		{hifind.WithSeed(0)},
		{hifind.WithInterval(0)},
		{hifind.WithThresholdPerSecond(-1)},
		{hifind.WithAlpha(0)},
		{hifind.WithAlpha(1.5)},
	}
	for i, opts := range bad {
		if _, err := hifind.New(opts...); err == nil {
			t.Errorf("bad option set %d accepted", i)
		}
	}
	if _, err := hifind.NewRecorder(hifind.WithSeed(0)); err == nil {
		t.Error("recorder accepted bad option")
	}
}

func TestThresholdScalesWithInterval(t *testing.T) {
	// 10-second intervals with 1 SYN/s threshold ⇒ per-interval
	// threshold 10; a 30-SYN burst per interval must now trigger.
	d := newCompact(t, hifind.WithInterval(10*time.Second))
	if d.Interval() != 10*time.Second {
		t.Fatal("interval accessor wrong")
	}
	if _, err := d.EndInterval(); err != nil {
		t.Fatal(err)
	}
	var alerts int
	for iv := 0; iv < 3; iv++ {
		for i := 0; i < 30; i++ {
			d.Observe(synIn(fmt.Sprintf("20.1.1.%d", i+1), "129.105.2.2", 443))
		}
		// Keep the victim "active" so phase 3 does not discard it.
		d.Observe(synAckOut("129.105.2.2", "20.1.1.1", 443))
		res, err := d.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		alerts += len(res.Final)
	}
	if alerts == 0 {
		t.Error("threshold did not scale with the shorter interval")
	}
}

func TestNonIPv4Dropped(t *testing.T) {
	d := newCompact(t)
	d.Observe(hifind.Packet{
		SrcIP: addr("2001:db8::1"), DstIP: addr("129.105.1.1"),
		SYN: true, Dir: hifind.Inbound,
	})
	if d.Dropped() != 1 {
		t.Errorf("Dropped = %d, want 1", d.Dropped())
	}
}

func TestMemoryBytesFixed(t *testing.T) {
	d, err := hifind.New()
	if err != nil {
		t.Fatal(err)
	}
	mb := float64(d.MemoryBytes()) / (1 << 20)
	if mb < 12 || mb > 15 {
		t.Errorf("paper-config memory %.1f MB, want ≈13.2", mb)
	}
	before := d.MemoryBytes()
	for i := 0; i < 10000; i++ {
		d.Observe(synIn(fmt.Sprintf("20.%d.%d.%d", i>>16, (i>>8)&255, (i&255)/2+1), "129.105.1.1", 80))
	}
	if d.MemoryBytes() != before {
		t.Error("memory grew with traffic")
	}
}

func TestMergedDetectionAcrossRecorders(t *testing.T) {
	// An attack split across two edge recorders plus the detector's own
	// traffic is only visible after merging — the public multi-router API.
	seed := hifind.WithSeed(0x1234)
	compact := hifind.WithCompactSketches()
	det := newCompact(t, seed)
	r1, err := hifind.NewRecorder(compact, seed)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := hifind.NewRecorder(compact, seed)
	if err != nil {
		t.Fatal(err)
	}
	endMerged := func() hifind.Result {
		s1, err := r1.StateSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		s2, err := r2.StateSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		res, err := det.EndIntervalMerged(s1, s2)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	endMerged() // quiet first interval
	var finals []hifind.Alert
	for iv := 0; iv < 3; iv++ {
		// 240 flood SYNs/interval split three ways: 80 each, every share
		// below the 60/interval... no — each share is above. Use 150
		// total: 50 per observer, below threshold individually.
		targets := []func(hifind.Packet){det.Observe, r1.Observe, r2.Observe}
		for i := 0; i < 150; i++ {
			targets[i%3](synIn(fmt.Sprintf("20.2.%d.%d", i/250, i%250+1), "129.105.3.3", 80))
		}
		targets[iv%3](synAckOut("129.105.3.3", "20.2.0.1", 80))
		finals = append(finals, endMerged().Final...)
	}
	if len(finals) == 0 {
		t.Fatal("merged detection missed the split attack")
	}
	if finals[0].Victim != addr("129.105.3.3") {
		t.Errorf("victim = %v", finals[0].Victim)
	}
	if r1.MemoryBytes() == 0 {
		t.Error("recorder memory accessor broken")
	}
}

// TestCheckpointRoundTrip saves at an interval boundary and restores
// into a fresh detector: the continuation must match a never-checkpointed
// run bit for bit, in every result and in every later checkpoint.
func TestCheckpointRoundTrip(t *testing.T) {
	intervals := equivTrace(t)
	const handoff = 2

	straight := newCompact(t)
	restarted := newCompact(t)
	for _, pkts := range intervals[:handoff] {
		for _, p := range pkts {
			straight.Observe(toPublic(p))
			restarted.Observe(toPublic(p))
		}
		if _, err := straight.EndInterval(); err != nil {
			t.Fatal(err)
		}
		if _, err := restarted.EndInterval(); err != nil {
			t.Fatal(err)
		}
	}
	checkpoint, err := restarted.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	restored := newCompact(t)
	if err := restored.LoadState(checkpoint); err != nil {
		t.Fatal(err)
	}
	for i, pkts := range intervals[handoff:] {
		for _, p := range pkts {
			straight.Observe(toPublic(p))
			restored.Observe(toPublic(p))
		}
		sres, err := straight.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		rres, err := restored.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripTimes(sres), stripTimes(rres)) {
			t.Errorf("interval %d after restore: results diverge", handoff+i)
		}
		sstate, err := straight.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		rstate, err := restored.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sstate, rstate) {
			t.Errorf("interval %d after restore: checkpoints not bit-identical", handoff+i)
		}
	}
}

func TestMergedRejectsGarbageState(t *testing.T) {
	det := newCompact(t)
	if _, err := det.EndIntervalMerged([]byte("junk")); err == nil {
		t.Error("garbage state accepted")
	}

	// A rejected merge is atomic: the good state passed beside a bad one
	// is not added either, so the detector stays byte-identical to a twin
	// that never saw the call.
	twin := newCompact(t)
	snapshot := func(opts ...hifind.Option) []byte {
		t.Helper()
		r, err := hifind.NewRecorder(append([]hifind.Option{hifind.WithCompactSketches()}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			r.Observe(synIn(fmt.Sprintf("20.4.0.%d", i+1), "129.105.4.4", 80))
		}
		r.Observe(synAckOut("129.105.4.4", "20.4.0.1", 80))
		state, err := r.StateSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		return state
	}
	good := snapshot()
	for _, bad := range []struct {
		name  string
		state []byte
	}{
		{"truncated", good[:len(good)/2]},
		{"wrong seed", snapshot(hifind.WithSeed(0xbad5eed))},
		{"other structure set", snapshot(hifind.WithReflectionDetection())},
	} {
		for _, d := range []*hifind.Detector{det, twin} {
			for i := 0; i < 100; i++ {
				d.Observe(synIn(fmt.Sprintf("20.5.%d.%d", i/250, i%250+1), "129.105.5.5", 80))
			}
			d.Observe(synAckOut("129.105.5.5", "20.5.0.1", 80))
		}
		if _, err := det.EndIntervalMerged(good, bad.state); err == nil {
			t.Fatalf("%s state accepted", bad.name)
		}
		got, err := det.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		want, err := twin.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripTimes(got), stripTimes(want)) {
			t.Errorf("after the rejected %s merge: alerts diverged from the twin", bad.name)
		}
		gotState, err := det.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		wantState, err := twin.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotState, wantState) {
			t.Errorf("after the rejected %s merge: SaveState diverged from the twin", bad.name)
		}
	}
}

func TestReplayPcap(t *testing.T) {
	// Build a small capture with an embedded flood using the internal
	// trace generator and pcap writer, then replay it via the public API.
	cfg := trace.Config{
		Seed:            5,
		Start:           time.Date(2005, 5, 10, 0, 0, 0, 0, time.UTC),
		Interval:        time.Minute,
		Intervals:       5,
		InternalPrefix:  0x81690000, // 129.105.0.0
		Servers:         20,
		BackgroundFlows: 400,
		FailRate:        0.04,
	}
	cfg.Attacks = []trace.Attack{{
		Type: trace.SYNFlood, Spoofed: true, Victim: 0x8169c801, /* 129.105.200.1 */
		Ports: []uint16{80}, StartInterval: 1, EndInterval: 4, Rate: 400,
		ResponseRate: 0.1, Cause: "flood",
	}}
	g, err := trace.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := pcap.NewWriter(&buf)
	if err := g.Stream(w.WritePacket); err != nil {
		t.Fatal(err)
	}

	d := newCompact(t)
	results, err := hifind.ReplayPcap(&buf, []string{"129.105.0.0/16"}, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) < 4 {
		t.Fatalf("replay produced %d intervals, want ≥4", len(results))
	}
	found := false
	for _, r := range results {
		for _, a := range r.Final {
			if a.Type == hifind.SYNFlood && a.Victim == addr("129.105.200.1") {
				found = true
			}
		}
	}
	if !found {
		t.Error("flood in the capture not detected on replay")
	}
	if _, err := hifind.ReplayPcap(bytes.NewReader(nil), []string{"10.0.0.0/8"}, d); err == nil {
		t.Error("empty capture accepted")
	}
	if _, err := hifind.ReplayPcap(&buf, nil, d); err == nil {
		t.Error("missing edge CIDRs accepted")
	}
}

func TestReplayNetFlow(t *testing.T) {
	// Same scenario as TestReplayPcap but through the NetFlow v5 path,
	// which is how the paper's own evaluation consumed its traces.
	cfg := trace.Config{
		Seed:            6,
		Start:           time.Date(2005, 5, 10, 0, 0, 0, 0, time.UTC),
		Interval:        time.Minute,
		Intervals:       5,
		InternalPrefix:  0x81690000,
		Servers:         20,
		BackgroundFlows: 400,
		FailRate:        0.04,
	}
	cfg.Attacks = []trace.Attack{{
		Type: trace.SYNFlood, Spoofed: true, Victim: 0x8169c802, /* 129.105.200.2 */
		Ports: []uint16{25}, StartInterval: 1, EndInterval: 4, Rate: 400,
		ResponseRate: 0.1, Cause: "flood",
	}}
	g, err := trace.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := netflow.NewWriter(&buf, cfg.Start)
	for i := 0; i < cfg.Intervals; i++ {
		pkts, err := g.GenerateInterval(i)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range netflow.FromPackets(pkts, cfg.Start) {
			ts := cfg.Start.Add(time.Duration(rec.LastMs) * time.Millisecond)
			if err := w.Add(rec, ts); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	d := newCompact(t)
	results, err := hifind.ReplayNetFlow(&buf, []string{"129.105.0.0/16"}, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) < 4 {
		t.Fatalf("netflow replay produced %d intervals", len(results))
	}
	found := false
	for _, r := range results {
		for _, a := range r.Final {
			if a.Type == hifind.SYNFlood && a.Victim == addr("129.105.200.2") && a.Port == 25 {
				found = true
			}
		}
	}
	if !found {
		t.Error("flood in the NetFlow stream not detected")
	}
	if _, err := hifind.ReplayNetFlow(bytes.NewReader([]byte{1, 2, 3}), []string{"10.0.0.0/8"}, d); err == nil {
		t.Error("garbage netflow accepted")
	}
	if _, err := hifind.ReplayNetFlow(&buf, nil, d); err == nil {
		t.Error("missing edge CIDRs accepted")
	}
}

func TestObserveFlowEquivalence(t *testing.T) {
	// Flow-record input must drive detection like the equivalent packets.
	d := newCompact(t, hifind.WithSeed(0x2222))
	if _, err := d.EndInterval(); err != nil {
		t.Fatal(err)
	}
	var finals []hifind.Alert
	for iv := 0; iv < 3; iv++ {
		for i := 0; i < 200; i++ {
			d.ObserveFlow(hifind.Flow{
				SrcIP: netip.AddrFrom4([4]byte{20, 3, byte(i / 250), byte(i%250 + 1)}),
				DstIP: addr("129.105.8.8"), SrcPort: uint16(3000 + i), DstPort: 443,
				Dir: hifind.Inbound, SYNs: 1,
			})
		}
		// The victim answers one legitimate client so the active-service
		// filter keeps the alert.
		d.ObserveFlow(hifind.Flow{
			SrcIP: addr("129.105.8.8"), DstIP: addr("20.3.0.1"),
			SrcPort: 443, DstPort: 3000, Dir: hifind.Outbound, SYNACKs: 1,
		})
		res, err := d.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		finals = append(finals, res.Final...)
	}
	if len(finals) == 0 {
		t.Fatal("flow-record input produced no detection")
	}
	if finals[0].Victim != addr("129.105.8.8") || finals[0].Port != 443 {
		t.Errorf("alert = %+v", finals[0])
	}
	// Non-IPv4 flows drop.
	d.ObserveFlow(hifind.Flow{SrcIP: addr("2001:db8::1"), DstIP: addr("10.0.0.1"), SYNs: 1})
	if d.Dropped() == 0 {
		t.Error("non-IPv4 flow not counted as dropped")
	}
}

func TestReplayPcapNGAutoDetect(t *testing.T) {
	// A pcapng stream through the same public entry point: one SHB + IDB,
	// then the trace frames as enhanced packet blocks.
	cfg := trace.Config{
		Seed:            8,
		Start:           time.Date(2005, 5, 10, 0, 0, 0, 0, time.UTC),
		Interval:        time.Minute,
		Intervals:       4,
		InternalPrefix:  0x81690000,
		Servers:         15,
		BackgroundFlows: 300,
		FailRate:        0.04,
	}
	cfg.Attacks = []trace.Attack{{
		Type: trace.SYNFlood, Spoofed: true, Victim: 0x8169c803,
		Ports: []uint16{80}, StartInterval: 1, EndInterval: 3, Rate: 400,
		ResponseRate: 0.1, Cause: "flood",
	}}
	g, err := trace.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := pcap.NewNGWriter(&buf)
	if err := g.Stream(w.WritePacket); err != nil {
		t.Fatal(err)
	}
	d := newCompact(t)
	results, err := hifind.ReplayPcap(&buf, []string{"129.105.0.0/16"}, d)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range results {
		for _, a := range r.Final {
			if a.Type == hifind.SYNFlood && a.Victim == addr("129.105.200.3") {
				found = true
			}
		}
	}
	if !found {
		t.Error("flood in pcapng capture not detected")
	}
}

func TestReplayPcapContextCancel(t *testing.T) {
	// A canceled context must stop the replay promptly AND flush the
	// partial interval through detection — the graceful-shutdown
	// contract cmd/hifind relies on. The trace is sized well past the
	// context-check stride so cancellation triggers mid-replay.
	cfg := trace.Config{
		Seed:            6,
		Start:           time.Date(2005, 5, 10, 0, 0, 0, 0, time.UTC),
		Interval:        time.Minute,
		Intervals:       3,
		InternalPrefix:  0x81690000,
		Servers:         20,
		BackgroundFlows: 4000,
		FailRate:        0.04,
	}
	g, err := trace.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := pcap.NewWriter(&buf)
	if err := g.Stream(w.WritePacket); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d := newCompact(t)
	results, err := hifind.ReplayPcapContext(ctx, &buf, []string{"129.105.0.0/16"}, d)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(results) == 0 {
		t.Fatal("canceled replay must still flush the partial interval")
	}
	// An un-canceled context replays to completion with a nil error.
	d2 := newCompact(t)
	var buf2 bytes.Buffer
	w2 := pcap.NewWriter(&buf2)
	g2, err := trace.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.Stream(w2.WritePacket); err != nil {
		t.Fatal(err)
	}
	full, err := hifind.ReplayPcapContext(context.Background(), &buf2, []string{"129.105.0.0/16"}, d2)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) <= len(results) {
		t.Fatalf("full replay yielded %d intervals, canceled %d — cancellation had no effect", len(full), len(results))
	}
}
