// Multirouter: aggregated detection over three edge routers (paper §3.1,
// Figure 3 and §5.3.2).
//
// The example reproduces the asymmetric-routing scenario the paper
// motivates: per-packet load balancing sends every packet — including the
// SYN and SYN/ACK of a single connection — through a randomly chosen
// router, so no single vantage point sees a coherent picture. Each router
// runs a recording-only HiFIND instance; once per interval the serialized
// sketch states are shipped (here: over a real TCP connection, using the
// internal aggregation transport via the public API's byte payloads) to a
// central detector that merges them by sketch linearity and detects on
// the whole.
//
// For contrast, the example also runs an independent detector on each
// router alone and shows the attack staying below every per-router
// threshold.
//
// A second act replays the same topology over the real aggregation
// transport — TCP reporters shipping CRC-framed state to a collector —
// and crashes one router mid-run: the collector closes the interval as
// a partial merge at the deadline (detection continues, flagged), then
// recovers to full merges when the router comes back.
//
//	go run ./examples/multirouter
package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"time"

	hifind "github.com/hifind/hifind"
	"github.com/hifind/hifind/internal/aggregate"
	"github.com/hifind/hifind/internal/core"
	"github.com/hifind/hifind/internal/netmodel"
	"github.com/hifind/hifind/internal/telemetry"
)

const routers = 3

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "multirouter:", err)
		os.Exit(1)
	}
	if err := faultDemo(); err != nil {
		fmt.Fprintln(os.Stderr, "multirouter:", err)
		os.Exit(1)
	}
}

func run() error {
	// Shared seed ⇒ combinable sketches; that is the only coordination
	// the deployment needs.
	opts := []hifind.Option{hifind.WithCompactSketches(), hifind.WithSeed(0xA66)}

	central, err := hifind.New(opts...)
	if err != nil {
		return err
	}
	edges := make([]*hifind.Recorder, routers)
	solo := make([]*hifind.Detector, routers) // per-router detectors, for contrast
	for i := range edges {
		if edges[i], err = hifind.NewRecorder(opts...); err != nil {
			return err
		}
		if solo[i], err = hifind.New(opts...); err != nil {
			return err
		}
	}

	rng := rand.New(rand.NewSource(7))
	webServer := netip.MustParseAddr("10.9.0.2") // busy benign service
	victim := netip.MustParseAddr("10.9.0.1")    // flooded mail service
	fmt.Println("spoofed SYN flood of 150 SYNs/min split over 3 routers (≈50 each,")
	fmt.Println("below the per-router threshold of 60) — paper Figure 3 topology")
	fmt.Println()

	for interval := 0; interval < 4; interval++ {
		// Background completed handshakes, also split per packet.
		for i := 0; i < 600; i++ {
			client := netip.AddrFrom4([4]byte{byte(30 + rng.Intn(40)), byte(rng.Intn(256)), byte(rng.Intn(256)), 9})
			sport := uint16(30000 + rng.Intn(30000))
			syn := hifind.Packet{SrcIP: client, DstIP: webServer, SrcPort: sport, DstPort: 80,
				SYN: true, Dir: hifind.Inbound}
			ack := hifind.Packet{SrcIP: webServer, DstIP: client, SrcPort: 80, DstPort: sport,
				SYN: true, ACK: true, Dir: hifind.Outbound}
			route(rng, edges, solo, syn)
			route(rng, edges, solo, ack)
		}
		// The victim is a real, answering service (a few legitimate mail
		// connections per minute) — that is what separates a DoS target
		// from a misconfiguration in Phase 3.
		for i := 0; i < 5; i++ {
			client := netip.AddrFrom4([4]byte{byte(30 + rng.Intn(40)), byte(rng.Intn(256)), byte(rng.Intn(256)), 7})
			sport := uint16(30000 + rng.Intn(30000))
			route(rng, edges, solo, hifind.Packet{SrcIP: client, DstIP: victim, SrcPort: sport,
				DstPort: 25, SYN: true, Dir: hifind.Inbound})
			route(rng, edges, solo, hifind.Packet{SrcIP: victim, DstIP: client, SrcPort: 25,
				DstPort: sport, SYN: true, ACK: true, Dir: hifind.Outbound})
		}
		if interval >= 1 {
			for i := 0; i < 150; i++ {
				route(rng, edges, solo, hifind.Packet{
					SrcIP: netip.AddrFrom4([4]byte{byte(60 + rng.Intn(60)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(1 + rng.Intn(254))}),
					DstIP: victim, SrcPort: uint16(1024 + rng.Intn(60000)), DstPort: 25,
					SYN: true, Dir: hifind.Inbound,
				})
			}
		}

		// Per-router detection: each vantage point alone.
		perRouter := 0
		for _, d := range solo {
			res, err := d.EndInterval()
			if err != nil {
				return err
			}
			perRouter += len(res.Final)
		}

		// Aggregated detection: ship states, merge, detect.
		states := make([][]byte, routers)
		for i, e := range edges {
			if states[i], err = e.StateSnapshot(); err != nil {
				return err
			}
		}
		res, err := central.EndIntervalMerged(states...)
		if err != nil {
			return err
		}
		fmt.Printf("interval %d: per-router alerts=%d, aggregated alerts=%d\n",
			res.Interval, perRouter, len(res.Final))
		for _, a := range res.Final {
			fmt.Printf("  aggregated: %s\n", a)
		}
	}
	fmt.Println("\nonly the aggregated view, with the linearity-combined sketches,")
	fmt.Println("sees the flood that per-packet load balancing hid from every router")
	return nil
}

// route delivers one packet to a random router (per-packet load
// balancing), to both that router's recorder and its solo detector.
func route(rng *rand.Rand, edges []*hifind.Recorder, solo []*hifind.Detector, p hifind.Packet) {
	r := rng.Intn(routers)
	edges[r].Observe(p)
	solo[r].Observe(p)
}

// faultDemo is act two: the same flood, but shipped over the real TCP
// aggregation transport, with router 2 crashing during interval 2 and
// restarting for interval 3. The collector degrades to a partial merge
// (still detecting, alerts flagged) and recovers to full 3/3 merges.
func faultDemo() error {
	const seed = 0xA66
	rcfg := core.TestRecorderConfig(seed)
	reg := telemetry.NewRegistry()

	// The partial interval is closed by a deterministic trigger, not a
	// timer: once the two surviving routers' interval-2 frames have
	// arrived, the collection deadline fires. The observer runs on the
	// CollectEpoch goroutine, so plain variables are safe.
	seen := 0
	partialDeadline := make(chan time.Time)
	collector, err := aggregate.NewCollector(routers, "127.0.0.1:0",
		aggregate.WithTelemetry(reg),
		aggregate.WithFrameObserver(func(router uint32, epoch uint64) {
			if epoch == 3 {
				if seen++; seen == routers-1 {
					close(partialDeadline)
				}
			}
		}))
	if err != nil {
		return err
	}
	defer collector.Close()

	det, err := core.NewDetector(rcfg, core.DetectorConfig{Threshold: 60})
	if err != nil {
		return err
	}
	addr := collector.Addr()
	reps := make([]*aggregate.Reporter, routers)
	recs := make([]*core.Recorder, routers)
	for i := range reps {
		reps[i] = aggregate.NewReporter(uint32(i), addr)
		if recs[i], err = core.NewRecorder(rcfg); err != nil {
			return err
		}
	}
	defer func() {
		for _, rep := range reps {
			rep.Close()
		}
	}()

	fmt.Println("\n--- act two: the same flood over the real TCP transport,")
	fmt.Println("    with router 2 crashing in interval 3, mid-flood ---")
	rng := rand.New(rand.NewSource(7))
	for interval := 0; interval < 5; interval++ {
		if interval == 3 {
			reps[2].Close() // crash: interval 3 recorded state is lost with it
		}
		if interval == 4 {
			reps[2] = aggregate.NewReporter(2, addr) // restart, same router id
		}
		shares := faultDemoTraffic(rng, interval)
		for r, rep := range reps {
			if r == 2 && interval == 3 {
				continue
			}
			for _, p := range shares[r] {
				recs[r].Observe(p)
			}
			if err := rep.Report(uint64(interval), recs[r]); err != nil {
				return err
			}
			recs[r].Reset()
		}
		var deadline <-chan time.Time // nil: full intervals wait for all routers
		if interval == 3 {
			deadline = partialDeadline
		}
		info, err := collector.CollectEpoch(uint64(interval), deadline, det.Recorder())
		if err != nil {
			return err
		}
		res, err := det.EndIntervalWithPartial(info.Partial)
		if err != nil {
			return err
		}
		fmt.Printf("interval %d: %d/%d routers, partial=%v, %d alerts\n",
			interval, len(info.Contributors), routers, info.Partial, len(res.Final))
		for _, a := range res.Final {
			flag := ""
			if a.Partial {
				flag = " [partial — magnitude is a lower bound]"
			}
			fmt.Printf("  %s%s\n", a, flag)
		}
	}
	if err := collector.Close(); err != nil {
		return err
	}
	fmt.Printf("transport: reconnects=%d partial_intervals=%d\n",
		reg.Counter("aggregate_reconnects_total", "").Value(),
		reg.Counter("aggregate_partial_intervals_total", "").Value())
	fmt.Println("\nthe crash cost one router's share of one interval — detection")
	fmt.Println("degraded to a flagged lower bound instead of stalling, and the")
	fmt.Println("restarted router resynchronized on the collector's epoch")
	return nil
}

// faultDemoTraffic synthesizes one interval of the act-one topology as
// netmodel packets, already split per-packet across the routers: benign
// web handshakes, a few legitimate mail connections to the victim, and
// from interval 2 on a spoofed SYN flood ramping up each interval.
func faultDemoTraffic(rng *rand.Rand, interval int) [][]netmodel.Packet {
	shares := make([][]netmodel.Packet, routers)
	emit := func(p netmodel.Packet) {
		r := rng.Intn(routers)
		shares[r] = append(shares[r], p)
	}
	web := netmodel.IPv4(0x0A090002)    // 10.9.0.2
	victim := netmodel.IPv4(0x0A090001) // 10.9.0.1
	for i := 0; i < 600; i++ {
		client := netmodel.IPv4(0x1E000000 | uint32(rng.Intn(1<<24)))
		sport := uint16(30000 + rng.Intn(30000))
		emit(netmodel.Packet{SrcIP: client, DstIP: web, SrcPort: sport, DstPort: 80,
			Flags: netmodel.FlagSYN, Dir: netmodel.Inbound})
		emit(netmodel.Packet{SrcIP: web, DstIP: client, SrcPort: 80, DstPort: sport,
			Flags: netmodel.FlagSYN | netmodel.FlagACK, Dir: netmodel.Outbound})
	}
	for i := 0; i < 5; i++ {
		client := netmodel.IPv4(0x1F000000 | uint32(rng.Intn(1<<24)))
		sport := uint16(30000 + rng.Intn(30000))
		emit(netmodel.Packet{SrcIP: client, DstIP: victim, SrcPort: sport, DstPort: 25,
			Flags: netmodel.FlagSYN, Dir: netmodel.Inbound})
		emit(netmodel.Packet{SrcIP: victim, DstIP: client, SrcPort: 25, DstPort: sport,
			Flags: netmodel.FlagSYN | netmodel.FlagACK, Dir: netmodel.Outbound})
	}
	if interval >= 2 {
		// The flood ramps (150, 300, 600 SYNs/interval) the way a botnet
		// spins up; the growing forecast error is what keeps the alert
		// firing even in the interval merged without router 2's share.
		for i := 0; i < 150<<(interval-2); i++ {
			emit(netmodel.Packet{
				SrcIP:   netmodel.IPv4(0x3C000000 | uint32(rng.Intn(1<<24))),
				DstIP:   victim,
				SrcPort: uint16(1024 + rng.Intn(60000)),
				DstPort: 25,
				Flags:   netmodel.FlagSYN,
				Dir:     netmodel.Inbound,
			})
		}
	}
	return shares
}
