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
	return replay(ctx, d, func() (netmodel.Packet, time.Time, error) {
		pkt, err := pr.Next()
		return pkt, pkt.Timestamp, err
	}, d.observeInternal)
}

// replay is the interval loop both inputs share. next returns the next
// event and its capture time, or an error (io.EOF at a clean end of
// input); observe records the event. An interval closes whenever
// capture time reaches the interval's end, the first event opening the
// first interval; the last, partial interval closes when the input ends
// or ctx is canceled, so everything observed reaches detection.
func replay[E any](ctx context.Context, d Replayable, next func() (E, time.Time, error), observe func(E)) ([]Result, error) {
	var (
		results  []Result
		start    time.Time
		started  bool
		canceled error
		interval = d.Interval()
	)
	closeInterval := func() error {
		res, err := d.EndInterval()
		if err != nil {
			return err
		}
		results = append(results, res)
		return nil
	}
	for n := 1; ; n++ {
		if n%ctxCheckStride == 0 {
			if canceled = ctx.Err(); canceled != nil {
				break
			}
		}
		ev, ts, err := next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return results, fmt.Errorf("hifind: replay: %w", err)
		}
		if !started {
			start, started = ts, true
		}
		for ts.Sub(start) >= interval {
			if err := closeInterval(); err != nil {
				return results, err
			}
			start = start.Add(interval)
		}
		observe(ev)
	}
	if started {
		if err := closeInterval(); err != nil {
			return results, err
		}
	}
	return results, canceled
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
	return replay(ctx, d, func() (netmodel.FlowRecord, time.Time, error) {
		for {
			rec, hdr, err := nr.Next()
			if err != nil {
				return netmodel.FlowRecord{}, time.Time{}, err
			}
			if fr, ok := netflow.ToFlowRecord(rec, hdr, edge); ok {
				return fr, fr.End, nil
			}
		}
	}, d.observeFlowInternal)
}
