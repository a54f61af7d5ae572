package aggregate

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/hifind/hifind/internal/core"
	"github.com/hifind/hifind/internal/netmodel"
)

// routerPackets synthesizes a deterministic per-router, per-interval
// traffic slice so the concurrent test has a sequential reference.
func routerPackets(router, interval, n int) []netmodel.Packet {
	base := time.Date(2005, 5, 10, 12, 0, 0, 0, time.UTC).Add(time.Duration(interval) * time.Minute)
	pkts := make([]netmodel.Packet, 0, n)
	for i := 0; i < n; i++ {
		flags := netmodel.FlagSYN
		if i%3 == 0 {
			flags = netmodel.FlagSYN | netmodel.FlagACK
		}
		pkts = append(pkts, netmodel.Packet{
			Timestamp: base.Add(time.Duration(i) * time.Millisecond),
			SrcIP:     netmodel.IPv4(0xc0a80000 + uint32(router*1000+i)),
			DstIP:     netmodel.IPv4(0x0a000000 + uint32(i%50)),
			SrcPort:   uint16(1024 + i),
			DstPort:   uint16(80 + i%3),
			Flags:     flags,
			Dir:       netmodel.Inbound,
			Wire:      60,
		})
	}
	return pkts
}

// stressRecorderConfig trims the test geometry further for tests that
// build, serialize and merge many recorders per second: splitting the
// 64-bit key into 8 words of 8 bits shrinks the reverse-hash tabulation
// tables 256-fold, and the small bucket counts keep each serialized
// payload in the tens of kilobytes. The stress tests exercise
// concurrency, not inference accuracy, so the coarse geometry costs
// nothing.
func stressRecorderConfig(seed uint64) core.RecorderConfig {
	cfg := core.TestRecorderConfig(seed)
	cfg.RS64.Words = 8
	cfg.RS64.Buckets = 1 << 8
	cfg.RS48.Buckets = 1 << 8
	cfg.Verifier.Buckets = 1 << 8
	cfg.Original.Buckets = 1 << 8
	cfg.TwoD.XBuckets = 1 << 6
	cfg.ServiceCapacity = 1 << 12
	return cfg
}

// TestCollectorConcurrentRouters is the race-oriented stress test for the
// aggregation path: N router goroutines record and ship their intervals
// while the collector merges concurrently. Run under -race this exercises
// the accept loop, per-connection read loops, the frames channel, and the
// future-epoch buffering — routers free-run ahead of the collector (the
// pending buffer absorbs the skew), and the merged result must still
// equal a single-threaded reference merge, interval by interval.
func TestCollectorConcurrentRouters(t *testing.T) {
	const (
		routers      = 8
		intervals    = 6
		pktsPerRound = 40
	)
	rcfg := stressRecorderConfig(0x57e55)
	collector, err := NewCollector(routers, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer collector.Close()

	// Sequential reference, rebuilt per interval via Reset: constructing a
	// recorder is expensive (reverse-hash tables), observing is not.
	ref, err := core.NewRecorder(rcfg)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, routers)
	for r := 0; r < routers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rec, err := core.NewRecorder(rcfg)
			if err != nil {
				errs <- err
				return
			}
			rep := NewReporter(uint32(r), collector.Addr())
			defer rep.Close()
			for iv := 0; iv < intervals; iv++ {
				for _, p := range routerPackets(r, iv, pktsPerRound) {
					rec.Observe(p)
				}
				if err := rep.Report(uint64(iv), rec); err != nil {
					errs <- fmt.Errorf("router %d interval %d: %w", r, iv, err)
					return
				}
				rec.Reset()
			}
			// Every report must drain before Close abandons the spill.
			for rep.Pending() > 0 {
				time.Sleep(time.Millisecond)
			}
		}(r)
	}

	for iv := 0; iv < intervals; iv++ {
		merged := newRecorder(t, rcfg)
		if _, err := collector.CollectEpoch(uint64(iv), nil, merged); err != nil {
			t.Fatalf("interval %d: %v", iv, err)
		}
		// One recorder observing every router's traffic for this interval:
		// sketch linearity makes the merged state bit-identical to it.
		ref.Reset()
		for r := 0; r < routers; r++ {
			for _, p := range routerPackets(r, iv, pktsPerRound) {
				ref.Observe(p)
			}
		}
		got, err := merged.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("interval %d: concurrent merge diverged from sequential reference", iv)
		}
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := collector.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCollectorCloseDuringTraffic tears the collector down while raw
// connections are still streaming frames nobody collects: the frames
// channel fills, every read loop blocks on it, and Close must still
// unblock the accept loop and every read loop without leaking goroutines
// or racing them (the -race build checks the latter). Collector.Close
// waits on its WaitGroup, so a hang here is a leaked goroutine.
func TestCollectorCloseDuringTraffic(t *testing.T) {
	const routers = 4
	rcfg := stressRecorderConfig(0xc105e)
	collector, err := NewCollector(routers, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	rec, err := core.NewRecorder(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range routerPackets(0, 0, 10) {
		rec.Observe(p)
	}
	payload, err := rec.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	var wg, started sync.WaitGroup
	started.Add(routers)
	for r := 0; r < routers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", collector.Addr())
			if err != nil {
				started.Done()
				return
			}
			defer conn.Close()
			// First frame is on the wire before we report ready; after
			// that, spam until Close tears the connection down.
			first := true
			for iv := uint64(0); ; iv++ {
				err := WriteFrame(conn, Frame{Router: uint32(r), Epoch: iv, Payload: payload})
				if first {
					started.Done()
					first = false
				}
				if err != nil {
					return
				}
			}
		}(r)
	}

	started.Wait() // every router is connected and has written at least once
	if err := collector.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestCollectorCloseWithIdleConnection is the regression test for the
// shutdown race the seed had: a router connects but never sends a frame,
// and the collector is closed before the expected population ever
// reports. Close must tear down the idle connection's read loop (blocked
// in the decoder) and return; the seed's Close only closed the listener
// and hung on its WaitGroup.
func TestCollectorCloseWithIdleConnection(t *testing.T) {
	collector, err := NewCollector(3, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", collector.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Consume the hello so the read loop is provably past its write and
	// parked in the decoder when Close runs.
	dec := NewDecoder(conn)
	if f, err := dec.Next(); err != nil || !f.IsHello() {
		t.Fatalf("hello = %+v, %v", f, err)
	}

	closed := make(chan error, 1)
	go func() { closed <- collector.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung with an idle connection open")
	}
}
