package main

import (
	"bufio"
	"errors"
	"io"
	"os"
	"time"

	"github.com/hifind/hifind/internal/netflow"
	"github.com/hifind/hifind/internal/netmodel"
	"github.com/hifind/hifind/internal/pcap"
)

// batch is one measurement interval's decoded events. The slices are
// reused from interval to interval, so decoding (filling the batch) and
// observing (draining it) are separate stretches of time that can be
// timed from outside the program's packages.
type batch struct {
	pkts  []netmodel.Packet
	flows []netmodel.FlowRecord
}

func (b *batch) reset() { b.pkts, b.flows = b.pkts[:0], b.flows[:0] }

// source decodes a capture file one event at a time through the same
// readers the facade's replay functions use.
type source struct {
	pcap pcap.PacketSource
	nf   *netflow.Reader
	edge *netmodel.EdgeNetwork
	pkt  netmodel.Packet
	flow netmodel.FlowRecord
}

func openSource(c capture, r io.Reader) (*source, error) {
	edge, err := netmodel.NewEdgeNetwork(edgeCIDR)
	if err != nil {
		return nil, err
	}
	s := &source{edge: edge}
	if c.Format == "netflow" {
		s.nf = netflow.NewReader(r)
		return s, nil
	}
	if s.pcap, err = pcap.OpenReader(r, edge); err != nil {
		return nil, err
	}
	return s, nil
}

// read decodes the next event into s.pkt or s.flow and returns the
// timestamp interval boundaries follow (packet time, flow end time).
func (s *source) read() (time.Time, error) {
	if s.pcap != nil {
		var err error
		s.pkt, err = s.pcap.Next()
		return s.pkt.Timestamp, err
	}
	for {
		rec, hdr, err := s.nf.Next()
		if err != nil {
			return time.Time{}, err
		}
		if fr, ok := netflow.ToFlowRecord(rec, hdr, s.edge); ok {
			s.flow = fr
			return fr.End, nil
		}
	}
}

func (s *source) appendTo(b *batch) {
	if s.pcap != nil {
		b.pkts = append(b.pkts, s.pkt)
	} else {
		b.flows = append(b.flows, s.flow)
	}
}

// replayHooks receive each interval's batch and each interval's end.
// span is the ID of the span the call runs under (-1 when untraced).
type replayHooks struct {
	observe     func(b *batch)
	endInterval func(span, round int) error
}

// replayCapture drives hooks over the capture with replay.go's interval
// rule, one interval at a time: decode the interval into the batch,
// observe the batch, end the interval. With a span recorder it records
// run → interval[i] → {decode, observe, end_interval}.
func replayCapture(c capture, sr *spanRecorder, h replayHooks) error {
	f, err := os.Open(c.Path)
	if err != nil {
		return err
	}
	defer f.Close()
	src, err := openSource(c, bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return err
	}
	var (
		round    int
		b        batch
		start    time.Time
		saw      bool
		interval = time.Minute
	)
	run := sr.begin("run", -1, -1)
	defer func() { sr.end(run) }()
	for {
		iv := sr.begin("interval", run, round)
		dec := sr.begin("decode", iv, round)
		eof := false
		for {
			ts, err := src.read()
			if errors.Is(err, io.EOF) {
				eof = true
				break
			}
			if err != nil {
				return err
			}
			if !saw {
				start, saw = ts, true
			}
			if ts.Sub(start) >= interval {
				break // held in src until the interval has ended
			}
			src.appendTo(&b)
		}
		sr.end(dec)
		obs := sr.begin("observe", iv, round)
		h.observe(&b)
		sr.end(obs)
		b.reset()
		if eof && !saw {
			sr.end(iv)
			break
		}
		for {
			end := sr.begin("end_interval", iv, round)
			err := h.endInterval(end, round)
			sr.end(end)
			sr.end(iv)
			if err != nil {
				return err
			}
			round++
			start = start.Add(interval)
			if eof || src.timestamp().Sub(start) < interval {
				break
			}
			iv = sr.begin("interval", run, round) // an interval with no events
		}
		if eof {
			break
		}
		src.appendTo(&b)
	}
	return nil
}

// timestamp is the boundary time of the event read last.
func (s *source) timestamp() time.Time {
	if s.pcap != nil {
		return s.pkt.Timestamp
	}
	return s.flow.End
}
