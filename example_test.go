package hifind_test

import (
	"fmt"
	"net/netip"
	"time"

	hifind "github.com/hifind/hifind"
)

// Example demonstrates the basic detection loop: observe packets, close
// the measurement interval, read typed alerts.
func Example() {
	det, err := hifind.New(
		hifind.WithCompactSketches(),
		hifind.WithSeed(0xD0C),
		hifind.WithInterval(time.Minute),
	)
	if err != nil {
		fmt.Println(err)
		return
	}
	victim := netip.MustParseAddr("10.0.0.25")

	// Interval 0: benign traffic seeds the forecast and marks the mail
	// service active.
	observeBenign(det, victim, 200)
	if _, err := det.EndInterval(); err != nil {
		fmt.Println(err)
		return
	}

	// Intervals 1–2: a spoofed SYN flood joins the benign traffic.
	for iv := 0; iv < 2; iv++ {
		observeBenign(det, victim, 200)
		for i := 0; i < 500; i++ {
			det.Observe(hifind.Packet{
				SrcIP:   netip.AddrFrom4([4]byte{byte(30 + i%60), byte(i >> 8), byte(i), 7}),
				DstIP:   victim,
				SrcPort: uint16(1024 + i), DstPort: 25,
				SYN: true, Dir: hifind.Inbound,
			})
		}
		res, err := det.EndInterval()
		if err != nil {
			fmt.Println(err)
			return
		}
		for _, a := range res.Final {
			fmt.Printf("%v victim=%s port=%d spoofed=%v\n", a.Type, a.Victim, a.Port, a.Spoofed)
		}
	}
	// Output:
	// syn-flood victim=10.0.0.25 port=25 spoofed=true
}

// observeBenign plays completed handshakes against the victim's mail
// service so it registers as active.
func observeBenign(det *hifind.Detector, server netip.Addr, flows int) {
	for i := 0; i < flows; i++ {
		client := netip.AddrFrom4([4]byte{20, byte(i >> 8), byte(i), 9})
		sport := uint16(30000 + i)
		det.Observe(hifind.Packet{SrcIP: client, DstIP: server, SrcPort: sport, DstPort: 25,
			SYN: true, Dir: hifind.Inbound})
		det.Observe(hifind.Packet{SrcIP: server, DstIP: client, SrcPort: 25, DstPort: sport,
			SYN: true, ACK: true, Dir: hifind.Outbound})
	}
}

// ExampleDetector_EndIntervalMerged splits a spoofed flood across two
// vantage points, as per-packet load balancing over two edge routers
// does (paper §3.1, Figure 3). A Detector and a Recorder built with the
// same options each see less than the threshold of 60 un-responded SYNs
// per interval; a second Detector fed only the first one's share shows
// that. Adding the Recorder's StateSnapshot into the Detector's interval
// with EndIntervalMerged sums the sketches by linearity and recovers the
// whole flood.
func ExampleDetector_EndIntervalMerged() {
	opts := []hifind.Option{hifind.WithCompactSketches(), hifind.WithSeed(0xA66)}
	central, err := hifind.New(opts...)
	if err != nil {
		fmt.Println(err)
		return
	}
	alone, err := hifind.New(opts...)
	if err != nil {
		fmt.Println(err)
		return
	}
	edge, err := hifind.NewRecorder(opts...)
	if err != nil {
		fmt.Println(err)
		return
	}
	n := 0
	route := func(p hifind.Packet) {
		if n++; n%2 == 0 {
			central.Observe(p)
			alone.Observe(p)
		} else {
			edge.Observe(p)
		}
	}
	victim := netip.MustParseAddr("10.9.0.1")
	// The flood ramps up over three intervals; each vantage point sees
	// half of it, at most 70 SYNs.
	for iv, flood := range []int{0, 100, 140} {
		// A few answered connections keep the mail service active.
		for i := 0; i < 5; i++ {
			client := netip.AddrFrom4([4]byte{20, 0, byte(iv), byte(i)})
			sport := uint16(30000 + i)
			route(hifind.Packet{SrcIP: client, DstIP: victim, SrcPort: sport, DstPort: 25,
				SYN: true, Dir: hifind.Inbound})
			route(hifind.Packet{SrcIP: victim, DstIP: client, SrcPort: 25, DstPort: sport,
				SYN: true, ACK: true, Dir: hifind.Outbound})
		}
		for i := 0; i < flood; i++ {
			route(hifind.Packet{
				SrcIP:   netip.AddrFrom4([4]byte{byte(60 + i%60), byte(iv), byte(i), 1}),
				DstIP:   victim,
				SrcPort: uint16(1024 + i), DstPort: 25,
				SYN: true, Dir: hifind.Inbound,
			})
		}
		solo, err := alone.EndInterval()
		if err != nil {
			fmt.Println(err)
			return
		}
		state, err := edge.StateSnapshot()
		if err != nil {
			fmt.Println(err)
			return
		}
		merged, err := central.EndIntervalMerged(state)
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("interval %d: alone %d alerts, merged %d alerts\n", iv, len(solo.Final), len(merged.Final))
		for _, a := range merged.Final {
			fmt.Printf("  %v victim=%s port=%d spoofed=%v\n", a.Type, a.Victim, a.Port, a.Spoofed)
		}
	}
	// Output:
	// interval 0: alone 0 alerts, merged 0 alerts
	// interval 1: alone 0 alerts, merged 0 alerts
	// interval 2: alone 0 alerts, merged 1 alerts
	//   syn-flood victim=10.9.0.1 port=25 spoofed=true
}

// ExampleDetector_SaveState shows checkpointing across a process restart.
func ExampleDetector_SaveState() {
	opts := []hifind.Option{hifind.WithCompactSketches(), hifind.WithSeed(0xCAFE)}
	det, err := hifind.New(opts...)
	if err != nil {
		fmt.Println(err)
		return
	}
	if _, err := det.EndInterval(); err != nil {
		fmt.Println(err)
		return
	}
	state, err := det.SaveState()
	if err != nil {
		fmt.Println(err)
		return
	}

	// ... process restarts ...
	restarted, err := hifind.New(opts...)
	if err != nil {
		fmt.Println(err)
		return
	}
	if err := restarted.LoadState(state); err != nil {
		fmt.Println(err)
		return
	}
	res, err := restarted.EndInterval()
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("resumed at interval %d\n", res.Interval)
	// Output:
	// resumed at interval 1
}
