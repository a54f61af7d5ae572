package main

import (
	"bytes"
	"errors"
	"io"
	"time"

	"github.com/hifind/hifind/internal/netmodel"
	"github.com/hifind/hifind/internal/pcap"
)

// pcapRows encodes the head's packets as a pcap image in memory and
// times decoding it with the reader the replay path uses, so the row is
// frame parsing alone, with no file I/O in it.
func pcapRows(ms *metricSet, h *head) error {
	var img bytes.Buffer
	pw := pcap.NewWriter(&img)
	for _, p := range h.pkts {
		if err := pw.WritePacket(p); err != nil {
			return err
		}
	}
	edge, err := netmodel.NewEdgeNetwork(edgeCIDR)
	if err != nil {
		return err
	}
	var perPkt, mbps []float64
	skipped := 0
	for pass := 0; pass < componentPasses; pass++ {
		t0 := time.Now()
		rd, err := pcap.OpenReader(bytes.NewReader(img.Bytes()), edge)
		if err != nil {
			return err
		}
		n := 0
		for {
			p, err := rd.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return err
			}
			sinkU64 += uint64(p.DstPort)
			n++
		}
		el := time.Since(t0)
		perPkt = append(perPkt, float64(el)/float64(n))
		mbps = append(mbps, float64(img.Len())/1e6/el.Seconds())
		skipped = rd.Skipped()
	}
	ms.setSamples("pcap.decode_ns_per_pkt", perPkt)
	ms.setSamples("pcap.mb_per_s", mbps)
	ms.set("pcap.skipped_pkts", float64(skipped))
	return nil
}
