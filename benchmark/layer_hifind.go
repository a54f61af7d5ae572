package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/netip"
	"os"
	"time"

	hifind "github.com/hifind/hifind"
	"github.com/hifind/hifind/internal/netmodel"
	"github.com/hifind/hifind/internal/telemetry"
)

// timingSink times every event the facade emits and, in a traced pass,
// records it as an "emit" span under the end_interval span that caused
// it (the facade emits from inside EndInterval).
type timingSink struct {
	next     telemetry.Sink
	total    time.Duration
	sr       *spanRecorder
	parent   int
	interval int
}

func (s *timingSink) Emit(ev telemetry.Event) {
	id := s.sr.begin("emit", s.parent, s.interval)
	t0 := time.Now()
	s.next.Emit(ev)
	s.total += time.Since(t0)
	s.sr.end(id)
}

// timedDetector wraps the sealed hifind.Replayable: embedding the
// detector promotes its unexported observe methods, so the facade's own
// replay loop drives this value and only EndInterval is intercepted.
type timedDetector struct {
	*hifind.Detector
	outside []time.Duration // EndInterval as timed from here
}

func (t *timedDetector) EndInterval() (hifind.Result, error) {
	t0 := time.Now()
	res, err := t.Detector.EndInterval()
	t.outside = append(t.outside, time.Since(t0))
	return res, err
}

// facadeRun is one in-process pass through the public API.
type facadeRun struct {
	Wall    time.Duration
	Outside []time.Duration // per interval, EndInterval timed from the benchmark
	Program []time.Duration // per interval, the program's own detection clock
	Emit    time.Duration   // summed over all events
	Out     output          // the NDJSON the run's sink wrote, parsed
}

// newFacade builds the detector cmd/hifind builds with default flags:
// default options, a telemetry registry and an NDJSON alert sink.
func newFacade(sink telemetry.Sink) (*hifind.Detector, error) {
	return hifind.New(hifind.WithTelemetry(telemetry.NewRegistry()), hifind.WithAlertSink(sink))
}

// facadeReplay runs the capture through hifind.ReplayPcap/ReplayNetFlow,
// the path the binary takes, with no spans recorded.
func facadeReplay(c capture) (facadeRun, error) {
	var buf bytes.Buffer
	sink := &timingSink{next: telemetry.NewJSONSink(&buf)}
	det, err := newFacade(sink)
	if err != nil {
		return facadeRun{}, err
	}
	td := &timedDetector{Detector: det}
	f, err := os.Open(c.Path)
	if err != nil {
		return facadeRun{}, err
	}
	defer f.Close()
	in := bufio.NewReaderSize(f, 1<<20)
	var results []hifind.Result
	t0 := time.Now()
	if c.Format == "netflow" {
		results, err = hifind.ReplayNetFlow(in, []string{edgeCIDR}, td)
	} else {
		results, err = hifind.ReplayPcap(in, []string{edgeCIDR}, td)
	}
	run := facadeRun{Wall: time.Since(t0), Outside: td.outside, Emit: sink.total}
	if err != nil {
		return facadeRun{}, err
	}
	for _, r := range results {
		run.Program = append(run.Program, r.DetectionTime)
	}
	if run.Out, err = parseOutput(buf.Bytes()); err != nil {
		return facadeRun{}, err
	}
	return run, nil
}

func publicPacket(p netmodel.Packet) hifind.Packet {
	return hifind.Packet{
		Timestamp: p.Timestamp,
		SrcIP:     netip.AddrFrom4(p.SrcIP.Octets()),
		DstIP:     netip.AddrFrom4(p.DstIP.Octets()),
		SrcPort:   p.SrcPort,
		DstPort:   p.DstPort,
		SYN:       p.Flags&netmodel.FlagSYN != 0,
		ACK:       p.Flags&netmodel.FlagACK != 0,
		FIN:       p.Flags&netmodel.FlagFIN != 0,
		RST:       p.Flags&netmodel.FlagRST != 0,
		Dir:       hifind.Direction(p.Dir),
	}
}

func publicFlow(f netmodel.FlowRecord) hifind.Flow {
	return hifind.Flow{
		SrcIP:   netip.AddrFrom4(f.SrcIP.Octets()),
		DstIP:   netip.AddrFrom4(f.DstIP.Octets()),
		SrcPort: f.SrcPort,
		DstPort: f.DstPort,
		Dir:     hifind.Direction(f.Dir),
		SYNs:    f.SYNs,
		SYNACKs: f.SYNACKs,
	}
}

// facadeTraced is the traced run: the same detector driven through the
// public Observe/ObserveFlow/EndInterval with the benchmark's own
// interval loop, so decode, observe, end_interval and emit each get a
// span. Its alerts must equal the untraced pass's and the binary's.
func facadeTraced(c capture, sr *spanRecorder) (facadeRun, error) {
	var buf bytes.Buffer
	sink := &timingSink{next: telemetry.NewJSONSink(&buf), sr: sr}
	det, err := newFacade(sink)
	if err != nil {
		return facadeRun{}, err
	}
	var run facadeRun
	t0 := time.Now()
	err = replayCapture(c, sr, replayHooks{
		observe: func(b *batch) {
			for i := range b.pkts {
				det.Observe(publicPacket(b.pkts[i]))
			}
			for i := range b.flows {
				det.ObserveFlow(publicFlow(b.flows[i]))
			}
		},
		endInterval: func(span, round int) error {
			sink.parent, sink.interval = span, round
			t := time.Now()
			res, err := det.EndInterval()
			run.Outside = append(run.Outside, time.Since(t))
			run.Program = append(run.Program, res.DetectionTime)
			return err
		},
	})
	run.Wall = time.Since(t0)
	if err != nil {
		return facadeRun{}, err
	}
	run.Emit = sink.total
	if run.Out, err = parseOutput(buf.Bytes()); err != nil {
		return facadeRun{}, err
	}
	return run, nil
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// hifindRows fills the facade's ledger rows from the untraced passes and
// checks the program's detection clock against the outside one: a later
// change cannot move work out of detection_seconds unnoticed.
func hifindRows(ms *metricSet, c capture, runs []facadeRun) error {
	var perPkt []float64
	for _, r := range runs {
		perPkt = append(perPkt, float64(r.Wall)/float64(c.Packets))
	}
	ms.setSamples("hifind.replay_ns_per_pkt", perPkt)
	last := runs[len(runs)-1]
	if len(last.Outside) <= warmupIntervals {
		return fmt.Errorf("in-process replay ended only %d intervals", len(last.Outside))
	}
	outside := millis(last.Outside[warmupIntervals:])
	program := millis(last.Program[warmupIntervals:])
	ms.set("hifind.end_interval_ms_p50", median(outside))
	ms.set("hifind.end_interval_ms_max", maxOf(millis(last.Outside))) // cold-start intervals included
	ms.set("hifind.emit_us_per_interval", float64(last.Emit)/1e3/float64(len(last.Outside)))
	if o, p := median(outside), median(program); o > p*1.25 || p > o*1.25 {
		return fmt.Errorf("detection clocks disagree: EndInterval timed from outside has median %.3f ms, the program reports %.3f ms", o, p)
	}
	return nil
}
