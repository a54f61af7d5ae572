package main

import (
	"time"

	"github.com/hifind/hifind/internal/netflow"
	"github.com/hifind/hifind/internal/netmodel"
	"github.com/hifind/hifind/internal/trace"
)

// Component rows time one structure at a time, standalone, at the paper's
// geometry (core.PaperRecorderConfig), on the key stream of the workload's
// first headIntervals intervals. A structure alone keeps the cache to
// itself, so a row is a floor for what the same call costs inside the
// recorder; ledger.observe_coverage says how far the rows add up.
const (
	headIntervals   = 12
	componentPasses = 5
	componentSeed   = 0x48694649
)

// keyEvent is one sketch update the recorder derives from traffic: an
// inbound SYN (+1) or an outbound SYN/ACK (−1) under the connection's
// client, server and service port.
type keyEvent struct {
	sip, dip netmodel.IPv4
	dport    uint16
	syn      bool
}

func (e keyEvent) value() int32 {
	if e.syn {
		return 1
	}
	return -1
}

// head is the first intervals of a workload's trace in every form the
// layers take it: packets, NetFlow records, flow records, key events.
// The bounds slices give each interval's end index.
type head struct {
	pkts      []netmodel.Packet
	pktEnds   []int
	records   []netflow.Record
	recEnds   []int
	boot      time.Time
	flows     []netmodel.FlowRecord
	events    []keyEvent
	eventEnds []int
}

func buildHead(cfg trace.Config) (*head, error) {
	gen, err := trace.New(cfg)
	if err != nil {
		return nil, err
	}
	edge, err := netmodel.NewEdgeNetwork(edgeCIDR)
	if err != nil {
		return nil, err
	}
	h := &head{boot: cfg.Start}
	for i := 0; i < headIntervals && i < cfg.Intervals; i++ {
		pkts, err := gen.GenerateInterval(i)
		if err != nil {
			return nil, err
		}
		h.pkts = append(h.pkts, pkts...)
		h.pktEnds = append(h.pktEnds, len(h.pkts))
		for _, p := range pkts {
			switch {
			case p.Dir == netmodel.Inbound && p.Flags.IsSYN():
				h.events = append(h.events, keyEvent{p.SrcIP, p.DstIP, p.DstPort, true})
			case p.Dir == netmodel.Outbound && p.Flags.IsSYNACK():
				h.events = append(h.events, keyEvent{p.DstIP, p.SrcIP, p.SrcPort, false})
			}
		}
		h.eventEnds = append(h.eventEnds, len(h.events))
		recs := netflow.FromPackets(pkts, cfg.Start)
		h.records = append(h.records, recs...)
		h.recEnds = append(h.recEnds, len(h.records))
		for _, r := range recs {
			hdr := netflow.Header{UnixSecs: uint32(cfg.Start.Unix())}
			if fr, ok := netflow.ToFlowRecord(r, hdr, edge); ok {
				h.flows = append(h.flows, fr)
			}
		}
	}
	return h, nil
}

// dipDportKeys packs every event's {DIP,Dport} key, the victim key the
// flood detection step reverses.
func (h *head) dipDportKeys() []uint64 {
	keys := make([]uint64, len(h.events))
	for i, e := range h.events {
		keys[i] = netmodel.PackDIPDport(e.dip, e.dport)
	}
	return keys
}

// timePasses runs pass (n operations) componentPasses times and returns
// each pass's nanoseconds per operation. setup, when not nil, runs
// untimed before every pass.
func timePasses(n int, setup, pass func()) []float64 {
	out := make([]float64, 0, componentPasses)
	for i := 0; i < componentPasses; i++ {
		if setup != nil {
			setup()
		}
		t0 := time.Now()
		pass()
		out = append(out, float64(time.Since(t0))/float64(n))
	}
	return out
}

// sinkU64 and sinkF64 keep results of timed calls alive.
var (
	sinkU64 uint64
	sinkF64 float64
)
