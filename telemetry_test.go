package hifind

import (
	"net/netip"
	"strings"
	"testing"
	"time"

	"github.com/hifind/hifind/internal/telemetry"
)

func synPacket(src, dst netip.Addr, dport uint16) Packet {
	return Packet{
		Timestamp: time.Unix(0, 0),
		SrcIP:     src,
		DstIP:     dst,
		SrcPort:   40000,
		DstPort:   dport,
		SYN:       true,
		Dir:       Inbound,
	}
}

func TestDetectorTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	var events []telemetry.Event
	sink := sinkFunc(func(ev telemetry.Event) { events = append(events, ev) })
	det, err := New(WithCompactSketches(), WithTelemetry(reg), WithAlertSink(sink),
		WithBurstDetection(), WithPersistentFlowDetection(), WithReflectionDetection())
	if err != nil {
		t.Fatal(err)
	}
	src := netip.MustParseAddr("10.1.2.3")
	dst := netip.MustParseAddr("192.168.0.9")
	for i := 0; i < 10; i++ {
		det.Observe(synPacket(src, dst, 80))
	}
	det.Observe(Packet{SrcIP: netip.MustParseAddr("::1"), DstIP: netip.MustParseAddr("::2"), SYN: true, Dir: Inbound})
	if _, err := det.EndInterval(); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"hifind_packets_observed_total 10",
		"hifind_dropped_non_ipv4_total 1",
		"hifind_intervals_total 1",
		`hifind_sketch_occupancy_ratio{sketch="rs_dip_dport"}`,
		`hifind_inference_candidates{step="flood"}`,
		"hifind_inference_nodes_total",
		"hifind_inference_leaves_total",
		"hifind_inference_budget_hits_total",
		"hifind_detection_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Occupancy must be nonzero: ten packets were recorded before rotation.
	if strings.Contains(out, `hifind_sketch_occupancy_ratio{sketch="rs_dip_dport"} 0`+"\n") {
		t.Error("rs_dip_dport occupancy stayed zero despite recorded traffic")
	}
	if len(events) == 0 || events[len(events)-1].Kind != "interval" {
		t.Fatalf("sink must end with an interval summary, got %+v", events)
	}

	// The second interval runs detection. 40 SYNs from one source in one
	// burst slot are a burst-flood candidate (a slot past Threshold/2, an
	// interval under Threshold) and a persistence-band key; 80 inbound
	// SYN/ACKs nobody asked for are a reflection candidate. Each
	// auxiliary detector publishes its count on the candidates family.
	scanner := netip.MustParseAddr("10.9.9.9")
	for i := 0; i < 40; i++ {
		det.Observe(synPacket(scanner, dst, 443))
	}
	reflector, victim := netip.MustParseAddr("172.16.5.5"), netip.MustParseAddr("192.168.0.44")
	for i := 0; i < 80; i++ {
		det.Observe(Packet{Timestamp: time.Unix(0, 0), SrcIP: reflector, DstIP: victim,
			SrcPort: 53, DstPort: 33000, SYN: true, ACK: true, Dir: Inbound})
	}
	if _, err := det.EndInterval(); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out = b.String()
	for _, step := range []string{"burst", "persist", "reflection"} {
		series := `hifind_inference_candidates{step="` + step + `"} `
		i := strings.Index(out, series)
		if i < 0 {
			t.Errorf("exposition missing %s\n%s", series, out)
			continue
		}
		if strings.HasPrefix(out[i+len(series):], "0\n") {
			t.Errorf("%s stayed zero after an interval with %s traffic", series, step)
		}
	}
}

// TestInstrumentedObserveAllocFree pins the instrumented per-packet
// path at zero allocations: the counters are pre-registered atomics, so
// attaching telemetry must not hand the GC any per-packet garbage.
func TestInstrumentedObserveAllocFree(t *testing.T) {
	det, err := New(WithCompactSketches(), WithTelemetry(telemetry.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	pkt := synPacket(netip.MustParseAddr("8.8.4.4"), netip.MustParseAddr("192.168.0.1"), 80)
	allocs := testing.AllocsPerRun(1000, func() {
		det.Observe(pkt)
	})
	if allocs != 0 {
		t.Errorf("instrumented Observe allocates %v times per packet, want 0", allocs)
	}
}

type sinkFunc func(telemetry.Event)

func (f sinkFunc) Emit(ev telemetry.Event) { f(ev) }
