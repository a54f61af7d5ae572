package core

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"github.com/hifind/hifind/internal/burst"
	"github.com/hifind/hifind/internal/netmodel"
	"github.com/hifind/hifind/internal/revsketch"
	"github.com/hifind/hifind/internal/sketch"
	"github.com/hifind/hifind/internal/sketch2d"
)

// FuzzObserve drives Recorder.Observe and Recorder.ObserveFlow and the
// test reference (differential_test.go) with the same arbitrary event
// stream and requires byte-identical serialized state — the
// differential harness with the fuzzer choosing the inputs. Each 16-byte
// chunk of the corpus decodes to one event: packets with arbitrary
// flag/direction bytes (including the non-SYN noise both sides must
// ignore identically) and flow records with counts up to 255, enough to
// exercise the weighted-update collapse without making the reference's
// per-SYN replay loop the test's bottleneck (the differential unit
// tests cover larger counts).
func FuzzObserve(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0, 8, 8, 8, 8, 129, 105, 1, 1, 0x9c, 0x40, 0, 80, 0x02, 1})
	f.Add(bytes.Repeat([]byte{0x03, 0xff, 10, 20, 30, 40, 129, 105, 2, 2, 0, 53, 0, 53, 0x12, 2}, 8))
	// Small geometries keep per-iteration construction cheap (the 64-bit
	// reversible sketch's word tables dominate recorder build time at
	// paper scale); differential identity is geometry-independent.
	cfg := RecorderConfig{
		Seed:            0xf0aa,
		RS48:            revsketch.Params{KeyBits: 48, Words: 6, Stages: 6, Buckets: 1 << 12},
		RS64:            revsketch.Params{KeyBits: 64, Words: 8, Stages: 6, Buckets: 1 << 8},
		Verifier:        sketch.Params{Stages: 6, Buckets: 1 << 8},
		Original:        sketch.Params{Stages: 6, Buckets: 1 << 8},
		TwoD:            sketch2d.Params{Stages: 5, XBuckets: 1 << 8, YBuckets: 64},
		ServiceCapacity: 1 << 12,
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, ref := diffRecorders(t, cfg)
		for len(data) >= 16 {
			ev := data[:16]
			data = data[16:]
			sip := netmodel.IPv4(binary.LittleEndian.Uint32(ev[2:]))
			dip := netmodel.IPv4(binary.LittleEndian.Uint32(ev[6:]))
			sport := binary.LittleEndian.Uint16(ev[10:])
			dport := binary.LittleEndian.Uint16(ev[12:])
			dir := netmodel.Inbound
			if ev[1]&1 != 0 {
				dir = netmodel.Outbound
			}
			if ev[0]&1 != 0 {
				syns := int(ev[14])
				synacks := int(ev[15])
				rec := netmodel.FlowRecord{
					SrcIP: sip, DstIP: dip, SrcPort: sport, DstPort: dport,
					Dir: dir, SYNs: syns, SYNACKs: synacks,
				}
				got.ObserveFlow(rec)
				refObserveFlow(ref, rec)
			} else {
				pkt := netmodel.Packet{
					SrcIP: sip, DstIP: dip, SrcPort: sport, DstPort: dport,
					Flags: netmodel.TCPFlags(ev[14]), Dir: dir,
				}
				got.Observe(pkt)
				refObserve(ref, pkt)
			}
		}
		requireIdentical(t, got, ref, "fuzz")
	})
}

// FuzzRecorderAddBinary feeds arbitrary bytes to the merge path — the
// parser the aggregation collector runs over payloads read off TCP — on
// two structure sets: with the burst and reflection monitors on, and the
// plain set the collector merges. Seeds are valid snapshots of each set
// plus truncations of them. Every table is at its smallest valid size:
// the parser does not depend on geometry, and 8–11 KB seeds instead of
// the compact configuration's 5 MB keep the mutator on the headers and
// block lengths. AddBinary must never panic, and a rejected payload must
// leave the receiver's serialized state exactly as it was.
func FuzzRecorderAddBinary(f *testing.F) {
	var recs []*Recorder
	for i, monitors := range []bool{true, false} {
		cfg := RecorderConfig{
			Seed:            0xadd,
			RS48:            revsketch.Params{KeyBits: 48, Words: 4, Stages: 6, Buckets: 1 << 4},
			RS64:            revsketch.Params{KeyBits: 64, Words: 4, Stages: 6, Buckets: 1 << 4},
			Verifier:        sketch.Params{Stages: 6, Buckets: 1 << 4},
			Original:        sketch.Params{Stages: 6, Buckets: 1 << 4},
			TwoD:            sketch2d.Params{Stages: 5, XBuckets: 4, YBuckets: 4},
			ServiceCapacity: 1 << 6,
		}
		if monitors {
			cfg.BurstWindow = time.Minute / burst.Slots
			cfg.Reflection = true
		}
		src, err := NewRecorder(cfg)
		if err != nil {
			f.Fatal(err)
		}
		feed(src, diffStream(int64(i)+1, 300))
		payload := mustMarshal(f, src)
		for _, n := range []int{len(payload), len(payload) - 1, len(payload) / 2, 12, 8} {
			f.Add(payload[:n])
		}
		dst, err := NewRecorder(cfg)
		if err != nil {
			f.Fatal(err)
		}
		recs = append(recs, dst)
	}
	f.Add([]byte{})
	before := make([][]byte, len(recs))
	for i, r := range recs {
		before[i] = mustMarshal(f, r)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for i, r := range recs {
			if err := r.AddBinary(data); err == nil {
				before[i] = mustMarshal(t, r)
				continue
			}
			if !bytes.Equal(mustMarshal(t, r), before[i]) {
				t.Fatalf("receiver %d: rejected payload changed its state", i)
			}
		}
	})
}
