package hifind

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/hifind/hifind/internal/netflow"
	"github.com/hifind/hifind/internal/netmodel"
	"github.com/hifind/hifind/internal/pcap"
)

// ctxCheckStride is how many replayed events pass between context
// checks — frequent enough that an interrupt lands within microseconds,
// rare enough that the check never shows up in a profile.
const ctxCheckStride = 4096

// Replayable is the detector shape the replay functions drive;
// *Detector satisfies it. The interface is sealed (its observe methods
// are unexported), so the only other implementations are types that
// embed *Detector and override EndInterval — which is how the benchmark
// harness times rotations from outside the replay loop.
type Replayable interface {
	// Interval returns the configured interval length.
	Interval() time.Duration
	// EndInterval closes the current measurement interval and runs
	// detection.
	EndInterval() (Result, error)

	observeInternal(pkt netmodel.Packet)
	observeFlowInternal(fr netmodel.FlowRecord)
}

// ReplayPcap streams a packet capture — classic libpcap or pcapng, the
// format is sniffed from the magic bytes — through a detector, closing
// a measurement interval whenever capture time advances past the
// detector's interval length, and returns every interval's result.
// edgeCIDRs describes the monitored network (e.g. "129.105.0.0/16") so
// packet direction can be recovered from addresses; it must not be
// empty.
func ReplayPcap(r io.Reader, edgeCIDRs []string, d Replayable) ([]Result, error) {
	return ReplayPcapContext(context.Background(), r, edgeCIDRs, d)
}

// ReplayPcapContext is ReplayPcap with cancellation: when ctx is
// canceled mid-trace the replay stops promptly, closes the current
// partial interval so its traffic still reaches detection (nothing
// observed is lost), and returns the results gathered so far together
// with ctx.Err(). cmd/hifind uses this for SIGINT/SIGTERM shutdown.
func ReplayPcapContext(ctx context.Context, r io.Reader, edgeCIDRs []string, d Replayable) ([]Result, error) {
	edge, err := netmodel.NewEdgeNetwork(edgeCIDRs...)
	if err != nil {
		return nil, err
	}
	pr, err := pcap.OpenReader(r, edge)
	if err != nil {
		return nil, err
	}
	var (
		results       []Result
		intervalStart time.Time
		sawPacket     bool
		interval      = d.Interval()
		n             int
	)
	for {
		n++
		if n%ctxCheckStride == 0 && ctx.Err() != nil {
			return flushPartial(results, sawPacket, d, ctx)
		}
		pkt, err := pr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return results, fmt.Errorf("hifind: replay: %w", err)
		}
		if !sawPacket {
			intervalStart = pkt.Timestamp
			sawPacket = true
		}
		for pkt.Timestamp.Sub(intervalStart) >= interval {
			res, err := d.EndInterval()
			if err != nil {
				return results, err
			}
			results = append(results, res)
			intervalStart = intervalStart.Add(interval)
		}
		d.observeInternal(pkt)
	}
	if sawPacket {
		res, err := d.EndInterval()
		if err != nil {
			return results, err
		}
		results = append(results, res)
	}
	return results, nil
}

// flushPartial closes the in-progress interval on cancellation so the
// tail of the trace is detected, not dropped, then reports ctx.Err().
func flushPartial(results []Result, saw bool, d Replayable, ctx context.Context) ([]Result, error) {
	if saw {
		res, err := d.EndInterval()
		if err != nil {
			return results, err
		}
		results = append(results, res)
	}
	return results, ctx.Err()
}

// ReplayNetFlow streams a length-delimited NetFlow v5 export file (as
// written by cmd/tracegen -format netflow, or any exporter whose UDP
// datagrams were length-prefixed into a file) through a detector. The
// paper's own evaluation consumed exactly this input: "the router
// exports netflow data continuously which is recorded with sketches of
// HiFIND on the fly" (§5.1). Interval boundaries follow the flows' end
// times.
func ReplayNetFlow(r io.Reader, edgeCIDRs []string, d Replayable) ([]Result, error) {
	return ReplayNetFlowContext(context.Background(), r, edgeCIDRs, d)
}

// ReplayNetFlowContext is ReplayNetFlow with cancellation, with the
// same contract as ReplayPcapContext: a canceled context stops the
// replay, flushes the partial interval through detection, and returns
// the accumulated results alongside ctx.Err().
func ReplayNetFlowContext(ctx context.Context, r io.Reader, edgeCIDRs []string, d Replayable) ([]Result, error) {
	edge, err := netmodel.NewEdgeNetwork(edgeCIDRs...)
	if err != nil {
		return nil, err
	}
	nr := netflow.NewReader(r)
	var (
		results       []Result
		intervalStart time.Time
		sawFlow       bool
		interval      = d.Interval()
		n             int
	)
	for {
		n++
		if n%ctxCheckStride == 0 && ctx.Err() != nil {
			return flushPartial(results, sawFlow, d, ctx)
		}
		rec, hdr, err := nr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return results, fmt.Errorf("hifind: netflow replay: %w", err)
		}
		fr, ok := netflow.ToFlowRecord(rec, hdr, edge)
		if !ok {
			continue
		}
		if !sawFlow {
			intervalStart = fr.End
			sawFlow = true
		}
		for fr.End.Sub(intervalStart) >= interval {
			res, err := d.EndInterval()
			if err != nil {
				return results, err
			}
			results = append(results, res)
			intervalStart = intervalStart.Add(interval)
		}
		d.observeFlowInternal(fr)
	}
	if sawFlow {
		res, err := d.EndInterval()
		if err != nil {
			return results, err
		}
		results = append(results, res)
	}
	return results, nil
}
