package main

import (
	"bytes"
	"errors"
	"io"
	"time"

	"github.com/hifind/hifind/internal/netflow"
	"github.com/hifind/hifind/internal/netmodel"
)

// netflowRows exports the head's packets as NetFlow v5 in memory and
// times reading the export back into flow records: datagram unmarshal
// plus the direction/handshake conversion the replay path applies.
func netflowRows(ms *metricSet, h *head) error {
	var img bytes.Buffer
	nw := netflow.NewWriter(&img, h.boot)
	begin := 0
	for _, end := range h.recEnds {
		for _, r := range h.records[begin:end] {
			ts := h.boot.Add(time.Duration(r.LastMs) * time.Millisecond)
			if err := nw.Add(r, ts); err != nil {
				return err
			}
		}
		if err := nw.Flush(); err != nil {
			return err
		}
		begin = end
	}
	edge, err := netmodel.NewEdgeNetwork(edgeCIDR)
	if err != nil {
		return err
	}
	var perRec []float64
	for pass := 0; pass < componentPasses; pass++ {
		t0 := time.Now()
		rd := netflow.NewReader(bytes.NewReader(img.Bytes()))
		n := 0
		for {
			rec, hdr, err := rd.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return err
			}
			if fr, ok := netflow.ToFlowRecord(rec, hdr, edge); ok {
				sinkU64 += uint64(fr.SYNs)
			}
			n++
		}
		perRec = append(perRec, float64(time.Since(t0))/float64(n))
	}
	ms.setSamples("netflow.decode_ns_per_rec", perRec)
	ms.set("netflow.records", float64(len(h.records)))
	ms.set("netflow.pkts_per_rec", float64(len(h.pkts))/float64(len(h.records)))
	return nil
}
