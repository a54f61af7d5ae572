package aggregate

import (
	"bytes"
	"math/rand"
	"net"
	"reflect"
	"testing"

	"github.com/hifind/hifind/internal/core"
	"github.com/hifind/hifind/internal/netmodel"
	"github.com/hifind/hifind/internal/telemetry"
)

// randomPackets draws a packet stream from rng: mixed directions, flag
// combinations, and a keyspace small enough that flows collide in the
// sketches — linearity must hold through collisions, not around them.
func randomPackets(rng *rand.Rand, n int) []netmodel.Packet {
	flags := []netmodel.TCPFlags{
		netmodel.FlagSYN,
		netmodel.FlagSYN | netmodel.FlagACK,
		netmodel.FlagACK,
		netmodel.FlagFIN | netmodel.FlagACK,
		netmodel.FlagRST,
	}
	pkts := make([]netmodel.Packet, n)
	for i := range pkts {
		dir := netmodel.Inbound
		if rng.Intn(4) == 0 {
			dir = netmodel.Outbound
		}
		pkts[i] = netmodel.Packet{
			SrcIP:   netmodel.IPv4(0x0a000000 + uint32(rng.Intn(512))),
			DstIP:   netmodel.IPv4(0xc0a80000 + uint32(rng.Intn(128))),
			SrcPort: uint16(1024 + rng.Intn(8192)),
			DstPort: uint16([]int{22, 25, 53, 80, 443, 8080}[rng.Intn(6)]),
			Flags:   flags[rng.Intn(len(flags))],
			Dir:     dir,
			Wire:    40 + rng.Intn(1400),
		}
	}
	return pkts
}

// TestCombineLinearityProperty is the property-based check behind the
// whole multi-router design: for random streams, random k-way router
// partitions, random payload orderings, out-of-order cross-router frame
// delivery, epoch skew, and duplicated frames, the merged state is
// byte-identical to one recorder having seen everything — and detection
// over the merged state emits identical alerts. Each trial is fully
// determined by its seed.
func TestCombineLinearityProperty(t *testing.T) {
	const epochs = 3
	for _, seed := range []int64{0x11, 0x22, 0x33} {
		seed := seed
		t.Run(seedName(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			rcfg := stressRecorderConfig(uint64(seed))
			k := 2 + rng.Intn(4) // 2..5 routers

			// Partition a random stream per epoch; keep the full stream as
			// the single-site reference.
			ref, err := core.NewRecorder(rcfg)
			if err != nil {
				t.Fatal(err)
			}
			parts := make([]*core.Recorder, k)
			for i := range parts {
				if parts[i], err = core.NewRecorder(rcfg); err != nil {
					t.Fatal(err)
				}
			}
			refBytes := make([][]byte, epochs)   // [epoch]
			payloads := make([][][]byte, epochs) // [epoch][router]
			for e := 0; e < epochs; e++ {
				for _, p := range randomPackets(rng, 300+rng.Intn(300)) {
					ref.Observe(p)
					parts[rng.Intn(k)].Observe(p)
				}
				if refBytes[e], err = ref.MarshalBinary(); err != nil {
					t.Fatal(err)
				}
				ref.Reset()
				payloads[e] = make([][]byte, k)
				for i := range parts {
					if payloads[e][i], err = parts[i].MarshalBinary(); err != nil {
						t.Fatal(err)
					}
					parts[i].Reset()
				}
			}

			// Property 1 (pure COMBINE): merge order never matters.
			for e := 0; e < epochs; e++ {
				shuffled := append([][]byte(nil), payloads[e]...)
				rng.Shuffle(len(shuffled), func(i, j int) {
					shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
				})
				merged := newRecorder(t, rcfg)
				if err := merged.AddBinary(shuffled...); err != nil {
					t.Fatal(err)
				}
				got, err := merged.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, refBytes[e]) {
					t.Fatalf("epoch %d: shuffled merge diverged from single-site reference", e)
				}
			}

			// Property 2 (wire): deliver the same frames over TCP with
			// cross-router interleaving, epoch skew (routers run ahead; late
			// frames land in still-open epochs), and duplicated frames.
			reg := telemetry.NewRegistry()
			collector, err := NewCollector(k, "127.0.0.1:0", WithTelemetry(reg))
			if err != nil {
				t.Fatal(err)
			}
			defer collector.Close()

			conns := make([]net.Conn, k)
			for i := range conns {
				if conns[i], err = net.Dial("tcp", collector.Addr()); err != nil {
					t.Fatal(err)
				}
				defer conns[i].Close()
			}
			// One goroutine interleaves all routers' queues: per-router epoch
			// order is preserved (a real connection delivers in order), the
			// cross-router schedule is random, and ~1 in 4 frames is written
			// twice (an at-least-once resend after an ambiguous failure).
			type frameEvent struct {
				router int
				epoch  uint64
				dup    bool
			}
			var schedule []frameEvent
			next := make([]int, k)
			for remaining := k * epochs; remaining > 0; {
				r := rng.Intn(k)
				if next[r] >= epochs {
					continue
				}
				ev := frameEvent{router: r, epoch: uint64(next[r]), dup: rng.Intn(4) == 0}
				schedule = append(schedule, ev)
				next[r]++
				remaining--
			}
			var wantDups int64
			for _, ev := range schedule {
				if ev.dup {
					wantDups++
				}
			}
			writeErr := make(chan error, 1)
			go func() {
				for _, ev := range schedule {
					f := Frame{Router: uint32(ev.router), Epoch: ev.epoch,
						Payload: payloads[ev.epoch][ev.router]}
					if err := WriteFrame(conns[ev.router], f); err != nil {
						writeErr <- err
						return
					}
					if ev.dup {
						f.Flags |= FlagResend
						if err := WriteFrame(conns[ev.router], f); err != nil {
							writeErr <- err
							return
						}
					}
				}
				// Flush epoch: one trailing frame per router. Per-connection
				// ordering guarantees every scheduled frame (including
				// trailing duplicates) is processed before the flush epoch
				// completes, making the counters below exact.
				for r := 0; r < k; r++ {
					f := Frame{Router: uint32(r), Epoch: epochs, Payload: payloads[0][r]}
					if err := WriteFrame(conns[r], f); err != nil {
						writeErr <- err
						return
					}
				}
				writeErr <- nil
			}()

			aggDet, err := core.NewDetector(rcfg, core.DetectorConfig{Threshold: 30})
			if err != nil {
				t.Fatal(err)
			}
			refDet, err := core.NewDetector(rcfg, core.DetectorConfig{Threshold: 30})
			if err != nil {
				t.Fatal(err)
			}
			for e := 0; e < epochs; e++ {
				merged := newRecorder(t, rcfg)
				info, err := collector.CollectEpoch(uint64(e), nil, merged)
				if err != nil {
					t.Fatalf("epoch %d: %v", e, err)
				}
				if info.Partial || len(info.Contributors) != k {
					t.Fatalf("epoch %d: %+v, want full merge of %d", e, info, k)
				}
				got, err := merged.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, refBytes[e]) {
					t.Fatalf("epoch %d: wire merge diverged from single-site reference", e)
				}
				if err := aggDet.Recorder().AddBinary(got); err != nil {
					t.Fatal(err)
				}
				if err := refDet.Recorder().AddBinary(refBytes[e]); err != nil {
					t.Fatal(err)
				}
				aggRes, err := aggDet.EndInterval()
				if err != nil {
					t.Fatal(err)
				}
				refRes, err := refDet.EndInterval()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(aggRes.Final, refRes.Final) {
					t.Fatalf("epoch %d: merged-state alerts differ from single-site alerts\n got %v\nwant %v",
						e, aggRes.Final, refRes.Final)
				}
			}
			if _, err := collector.CollectEpoch(epochs, nil, newRecorder(t, rcfg)); err != nil {
				t.Fatalf("flush epoch: %v", err)
			}
			if err := <-writeErr; err != nil {
				t.Fatal(err)
			}
			// A duplicate that lands while its epoch is still open counts as
			// duplicate; one that trails the epoch's close counts as stale.
			dup := reg.Counter("aggregate_duplicate_frames_total", "").Value()
			stale := reg.Counter("aggregate_stale_frames_total", "").Value()
			if dup+stale != wantDups {
				t.Errorf("duplicate(%d) + stale(%d) = %d, want %d re-sent frames accounted for",
					dup, stale, dup+stale, wantDups)
			}
		})
	}
}

func seedName(seed int64) string {
	const hex = "0123456789abcdef"
	return "seed-" + string([]byte{hex[(seed>>4)&0xf], hex[seed&0xf]})
}
