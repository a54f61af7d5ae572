package aggregate

import (
	"bytes"
	"os"
	"strconv"
	"testing"
	"time"

	"github.com/hifind/hifind/internal/core"
	"github.com/hifind/hifind/internal/faultnet"
	"github.com/hifind/hifind/internal/telemetry"
	"github.com/hifind/hifind/internal/trace"
)

// newRecorder builds an empty recorder for payloads to be added into.
func newRecorder(t *testing.T, cfg core.RecorderConfig) *core.Recorder {
	t.Helper()
	rec, err := core.NewRecorder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// sumPayloads is the reference merge: the serialized sum of payloads.
func sumPayloads(t *testing.T, cfg core.RecorderConfig, payloads ...[]byte) []byte {
	t.Helper()
	rec := newRecorder(t, cfg)
	if err := rec.AddBinary(payloads...); err != nil {
		t.Fatal(err)
	}
	b, err := rec.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// recorderPayload serializes a recorder that observed the given packets.
func recorderPayload(t *testing.T, cfg core.RecorderConfig, observe ...func(*core.Recorder)) []byte {
	t.Helper()
	rec, err := core.NewRecorder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range observe {
		fn(rec)
	}
	p, err := rec.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func observePackets(router, interval, n int) func(*core.Recorder) {
	return func(rec *core.Recorder) {
		for _, p := range routerPackets(router, interval, n) {
			rec.Observe(p)
		}
	}
}

// TestCrashReconnectPartialInterval is the acceptance scenario for the
// fault-tolerant aggregation path, fully deterministic — every ordering
// decision is gated on an observed event, never on elapsed time:
//
//  1. Two routers report epoch 0; the merge is complete.
//  2. Router B's connection is reset mid-frame while reporting epoch 1
//     (a scheduled faultnet reset truncates the frame on the wire). The
//     collector's decoder counts the truncated frame corrupt; router A's
//     epoch-1 frame arrives intact. The epoch-1 deadline — closed by the
//     collector's own frame observer once A's frame is merged — produces
//     a Partial interval containing exactly A's traffic.
//  3. B's reconnect is held at a gated backoff sleep until the partial
//     close has happened, then released: B re-handshakes, learns from
//     the hello that epoch 1 is gone, prunes it from spill, and reports
//     epoch 2 normally.
//  4. Epoch 2 merges completely and is byte-identical to a fault-free
//     run — one crash costs (part of) one interval, nothing after it.
func TestCrashReconnectPartialInterval(t *testing.T) {
	rcfg := stressRecorderConfig(0xFA017)
	const pktsPerRound = 40

	// Per-router, per-epoch payloads, shared with the reference merges.
	payload := make(map[[2]int][]byte)
	for r := 0; r < 2; r++ {
		for iv := 0; iv < 3; iv++ {
			payload[[2]int{r, iv}] = recorderPayload(t, rcfg, observePackets(r, iv, pktsPerRound))
		}
	}
	refFor := func(t *testing.T, routers []int, iv int) []byte {
		t.Helper()
		var ps [][]byte
		for _, r := range routers {
			ps = append(ps, payload[[2]int{r, iv}])
		}
		return sumPayloads(t, rcfg, ps...)
	}

	// The epoch-1 deadline fires when the collector has merged router A's
	// epoch-1 frame — the observer closes it from inside CollectEpoch.
	deadline := make(chan time.Time)
	reg := telemetry.NewRegistry()
	collector, err := NewCollector(2, "127.0.0.1:0",
		WithTelemetry(reg),
		WithFrameObserver(func(router uint32, epoch uint64) {
			if router == 0 && epoch == 1 {
				close(deadline)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer collector.Close()

	// Router A: no faults.
	repA := NewReporter(0, collector.Addr())
	defer repA.Close()

	// Router B: connection 0 resets mid-frame while writing epoch 1 —
	// epoch 0's frame plus a 10-byte prefix of epoch 1's frame reach the
	// wire. Dial attempt 1 is refused so the reconnect parks at the gated
	// backoff sleep; attempt 2 (released by the test) is clean.
	resetAt := int64(headerSize+len(payload[[2]int{1, 0}])) + int64(headerSize) + 10
	gate := make(chan struct{})
	dialer := faultnet.NewDialer(func(i int) *faultnet.Plan {
		switch i {
		case 0:
			return &faultnet.Plan{ResetAfterBytes: resetAt}
		case 1:
			return &faultnet.Plan{FailConnect: true}
		default:
			return nil
		}
	})
	repB := NewReporter(1, collector.Addr(),
		WithDialFunc(dialer.DialContextFree),
		WithSleepFunc(func(time.Duration) bool { <-gate; return true }))
	defer repB.Close()

	// Epoch 0: both routers report; the merge is full and exact.
	if err := repA.ReportPayload(0, payload[[2]int{0, 0}]); err != nil {
		t.Fatal(err)
	}
	if err := repB.ReportPayload(0, payload[[2]int{1, 0}]); err != nil {
		t.Fatal(err)
	}
	merged0 := newRecorder(t, rcfg)
	info0, err := collector.CollectEpoch(0, nil, merged0)
	if err != nil {
		t.Fatal(err)
	}
	if info0.Partial || len(info0.Contributors) != 2 {
		t.Fatalf("epoch 0: %+v, want full merge of 2 routers", info0)
	}
	got0, err := merged0.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got0, refFor(t, []int{0, 1}, 0)) {
		t.Fatal("epoch 0 merge diverged from reference")
	}

	// Epoch 1: B's frame is truncated by the reset; A's arrives. The
	// observer-gated deadline closes the epoch as Partial.
	if err := repA.ReportPayload(1, payload[[2]int{0, 1}]); err != nil {
		t.Fatal(err)
	}
	if err := repB.ReportPayload(1, payload[[2]int{1, 1}]); err != nil {
		t.Fatal(err)
	}
	merged1 := newRecorder(t, rcfg)
	info1, err := collector.CollectEpoch(1, deadline, merged1)
	if err != nil {
		t.Fatal(err)
	}
	if !info1.Partial {
		t.Fatal("epoch 1 not flagged Partial")
	}
	if len(info1.Contributors) != 1 || info1.Contributors[0] != 0 {
		t.Fatalf("epoch 1 contributors = %v, want [0]", info1.Contributors)
	}
	got1, err := merged1.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got1, refFor(t, []int{0}, 1)) {
		t.Fatal("partial epoch-1 merge is not exactly router A's state")
	}

	// Detection over the partial merge carries the Partial flag through.
	det, err := core.NewDetector(rcfg, core.DetectorConfig{Threshold: 60})
	if err != nil {
		t.Fatal(err)
	}
	if err := det.Recorder().AddBinary(got1); err != nil {
		t.Fatal(err)
	}
	res, err := det.EndIntervalWithPartial(info1.Partial)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Error("IntervalResult.Partial not set for deadline-closed merge")
	}
	for _, a := range res.Final {
		if !a.Partial {
			t.Errorf("alert %v not flagged Partial", a)
		}
	}

	// Release B's reconnect; epoch 1 is pruned by the hello, epoch 2
	// proceeds as if nothing happened.
	close(gate)
	if err := repA.ReportPayload(2, payload[[2]int{0, 2}]); err != nil {
		t.Fatal(err)
	}
	if err := repB.ReportPayload(2, payload[[2]int{1, 2}]); err != nil {
		t.Fatal(err)
	}
	merged2 := newRecorder(t, rcfg)
	info2, err := collector.CollectEpoch(2, nil, merged2)
	if err != nil {
		t.Fatal(err)
	}
	if info2.Partial || len(info2.Contributors) != 2 {
		t.Fatalf("epoch 2: %+v, want full merge of 2 routers", info2)
	}
	got2, err := merged2.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, refFor(t, []int{0, 1}, 2)) {
		t.Fatal("post-recovery epoch-2 merge diverged from fault-free reference")
	}

	// Close flushes all read loops, making the counters final.
	if err := collector.Close(); err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter("aggregate_partial_intervals_total", "").Value(); v != 1 {
		t.Errorf("aggregate_partial_intervals_total = %d, want 1", v)
	}
	if v := reg.Counter("aggregate_reconnects_total", "").Value(); v != 1 {
		t.Errorf("aggregate_reconnects_total = %d, want 1", v)
	}
	if v := reg.Counter("aggregate_corrupt_frames_total", "").Value(); v < 1 {
		t.Errorf("aggregate_corrupt_frames_total = %d, want ≥1", v)
	}
	if got := repB.Reconnects(); got != 1 {
		t.Errorf("reporter B reconnects = %d, want 1", got)
	}
	if got := repB.StaleDropped(); got != 1 {
		t.Errorf("reporter B stale-dropped = %d, want 1 (the pruned epoch-1 report)", got)
	}
}

// TestFaultMatrix runs the whole aggregation stack — reporters, codec,
// collector — over connections injecting seeded resets, corruption,
// chunked and duplicated writes, and checks the system's core invariant
// under every fault mix: whatever subset of routers an epoch's merge
// reports as contributors, the merged state is byte-identical to a
// reference merge of exactly those routers' payloads. Nothing half-made
// ever comes out: faults can shrink the contributor set, never corrupt
// the merge.
//
// The seed comes from FAULT_SEED (the CI fault matrix runs 1..3); unset,
// it defaults to 1.
func TestFaultMatrix(t *testing.T) {
	seed := int64(1)
	if s := os.Getenv("FAULT_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("FAULT_SEED=%q: %v", s, err)
		}
		seed = v
	}
	const (
		routers   = 3
		intervals = 5
		pkts      = 40
	)
	rcfg := stressRecorderConfig(0xFA02)

	payload := make(map[[2]int][]byte)
	for r := 0; r < routers; r++ {
		for iv := 0; iv < intervals; iv++ {
			payload[[2]int{r, iv}] = recorderPayload(t, rcfg, observePackets(r, iv, pkts))
		}
	}

	reg := telemetry.NewRegistry()
	collector, err := NewCollector(routers, "127.0.0.1:0", WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer collector.Close()

	reps := make([]*Reporter, routers)
	for r := 0; r < routers; r++ {
		r := r
		dialer := faultnet.NewDialer(func(attempt int) *faultnet.Plan {
			// Every connection gets its own derived plan. A stress payload
			// serializes to ~215 KB, so 1e-6/byte corrupts roughly one frame
			// in five, and a reset window of 0.5–1.5 MB kills connections
			// every few frames while always letting the first frame of a
			// fresh connection through — resend always makes progress.
			return faultnet.RandomPlan(seed*1000+int64(r)*100+int64(attempt), 1e-6, 1<<20)
		})
		reps[r] = NewReporter(uint32(r), collector.Addr(),
			WithDialFunc(dialer.DialContextFree),
			WithBackoff(time.Millisecond, 8*time.Millisecond),
			WithBackoffSeed(seed+int64(r)))
		defer reps[r].Close()
	}

	for iv := 0; iv < intervals; iv++ {
		for r := 0; r < routers; r++ {
			if err := reps[r].ReportPayload(uint64(iv), payload[[2]int{r, iv}]); err != nil {
				t.Fatal(err)
			}
		}
		timer := time.NewTimer(2 * time.Second)
		merged := newRecorder(t, rcfg)
		info, err := collector.CollectEpoch(uint64(iv), timer.C, merged)
		timer.Stop()
		if err != nil {
			// A deadline with zero contributions is legal degradation under
			// pathological fault schedules, but log it: the interval is gone.
			t.Logf("seed %d epoch %d: %v", seed, iv, err)
			continue
		}
		var refPayloads [][]byte
		for _, r := range info.Contributors {
			refPayloads = append(refPayloads, payload[[2]int{int(r), iv}])
		}
		gotB, err := merged.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		refB := sumPayloads(t, rcfg, refPayloads...)
		if !bytes.Equal(gotB, refB) {
			t.Fatalf("seed %d epoch %d: merge of contributors %v diverged from reference",
				seed, iv, info.Contributors)
		}
		t.Logf("seed %d epoch %d: %d/%d routers, partial=%v",
			seed, iv, len(info.Contributors), routers, info.Partial)
	}
	if err := collector.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("seed %d: corrupt=%d partial=%d reconnects(collector)=%d dup=%d stale=%d",
		seed,
		reg.Counter("aggregate_corrupt_frames_total", "").Value(),
		reg.Counter("aggregate_partial_intervals_total", "").Value(),
		reg.Counter("aggregate_reconnects_total", "").Value(),
		reg.Counter("aggregate_duplicate_frames_total", "").Value(),
		reg.Counter("aggregate_stale_frames_total", "").Value())
}

// TestDetectionUnderFrameLoss quantifies the EXPERIMENTS.md claim:
// losing an interval report to silent wire corruption (the worst frame
// fault — the writer sees success, so nothing is retried) degrades that
// interval to a Partial lower bound but does not lose the attack. A
// spoofed flood at 600 SYN/interval towers over the threshold even when
// one of three routers' reports is gone.
func TestDetectionUnderFrameLoss(t *testing.T) {
	rcfg := core.TestRecorderConfig(0x1055)
	dcfg := core.DetectorConfig{Threshold: 60}
	const (
		intervals  = 6
		lossEpoch  = 3 // mid-attack (the flood runs intervals 2..5)
		lossRouter = 1
		routers    = 3
	)

	gen, err := trace.New(traceConfig(77, intervals))
	if err != nil {
		t.Fatal(err)
	}
	split, err := NewSplitter(routers, 5)
	if err != nil {
		t.Fatal(err)
	}

	// Record the split trace once; both runs reuse the payloads.
	recs := make([]*core.Recorder, routers)
	for r := range recs {
		if recs[r], err = core.NewRecorder(rcfg); err != nil {
			t.Fatal(err)
		}
	}
	payloads := make([][][]byte, intervals) // [interval][router]
	for iv := 0; iv < intervals; iv++ {
		pkts, err := gen.GenerateInterval(iv)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkts {
			recs[split.Route(p)].Observe(p)
		}
		payloads[iv] = make([][]byte, routers)
		for r := range recs {
			if payloads[iv][r], err = recs[r].MarshalBinary(); err != nil {
				t.Fatal(err)
			}
			recs[r].Reset()
		}
	}

	// Reference run: fault-free merges, a detector over all of them.
	refDet, err := core.NewDetector(rcfg, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	refKeys := map[core.AlertKey]bool{}
	for iv := 0; iv < intervals; iv++ {
		if err := refDet.Recorder().AddBinary(payloads[iv]...); err != nil {
			t.Fatal(err)
		}
		res, err := refDet.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range res.Final {
			refKeys[a.Key()] = true
		}
	}
	if len(refKeys) == 0 {
		t.Fatal("fault-free reference detected nothing; test is vacuous")
	}

	// Faulty run: router 1's connection silently corrupts one byte inside
	// the payload of its epoch-3 frame — the collector's CRC drops the
	// frame, the writer never knows.
	corruptOffset := int64(0)
	for iv := 0; iv < lossEpoch; iv++ {
		corruptOffset += int64(headerSize + len(payloads[iv][lossRouter]))
	}
	corruptOffset += int64(headerSize) + 7 // a payload byte of the lossEpoch frame
	lossyDialer := faultnet.NewDialer(func(int) *faultnet.Plan {
		return &faultnet.Plan{CorruptAt: map[int64]byte{corruptOffset: 0x80}}
	})

	// The loss epoch's deadline closes once the two surviving frames have
	// merged; everything is event-gated, nothing sleeps.
	deadline := make(chan time.Time)
	lossSeen := 0
	reg := telemetry.NewRegistry()
	collector, err := NewCollector(routers, "127.0.0.1:0",
		WithTelemetry(reg),
		WithFrameObserver(func(_ uint32, epoch uint64) {
			if epoch == lossEpoch {
				if lossSeen++; lossSeen == routers-1 {
					close(deadline)
				}
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer collector.Close()

	reps := make([]*Reporter, routers)
	for r := range reps {
		opts := []ReporterOption{}
		if r == lossRouter {
			opts = append(opts, WithDialFunc(lossyDialer.DialContextFree))
		}
		reps[r] = NewReporter(uint32(r), collector.Addr(), opts...)
		defer reps[r].Close()
	}

	faultDet, err := core.NewDetector(rcfg, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	faultKeys := map[core.AlertKey]bool{}
	for iv := 0; iv < intervals; iv++ {
		for r := range reps {
			if err := reps[r].ReportPayload(uint64(iv), payloads[iv][r]); err != nil {
				t.Fatal(err)
			}
		}
		var dl <-chan time.Time
		if iv == lossEpoch {
			dl = deadline
		}
		info, err := collector.CollectEpoch(uint64(iv), dl, faultDet.Recorder())
		if err != nil {
			t.Fatalf("epoch %d: %v", iv, err)
		}
		if (iv == lossEpoch) != info.Partial {
			t.Fatalf("epoch %d: partial=%v, want %v", iv, info.Partial, iv == lossEpoch)
		}
		res, err := faultDet.EndIntervalWithPartial(info.Partial)
		if err != nil {
			t.Fatal(err)
		}
		if iv == lossEpoch {
			for _, a := range res.Final {
				if !a.Partial {
					t.Errorf("loss-epoch alert %v not flagged Partial", a)
				}
			}
		}
		for _, a := range res.Final {
			faultKeys[a.Key()] = true
		}
	}

	// The attack must survive the lost report.
	for k := range refKeys {
		if !faultKeys[k] {
			t.Errorf("alert %+v lost to a single dropped frame", k)
		}
	}
	if v := reg.Counter("aggregate_corrupt_frames_total", "").Value(); v < 1 {
		t.Errorf("aggregate_corrupt_frames_total = %d, want ≥1", v)
	}
	t.Logf("1 of %d frames lost (%.1f%%): %d/%d reference alerts retained, loss interval Partial",
		intervals*routers, 100.0/float64(intervals*routers), len(faultKeys), len(refKeys))
}

// TestReporterSpillOverflow pins the bounded-buffer policy: a reporter
// that cannot deliver drops its oldest undelivered reports first.
func TestReporterSpillOverflow(t *testing.T) {
	// Dialer that never succeeds: everything queues.
	dialer := faultnet.NewDialer(func(int) *faultnet.Plan {
		return &faultnet.Plan{FailConnect: true}
	})
	gate := make(chan struct{})
	rep := NewReporter(0, "unused",
		WithDialFunc(dialer.DialContextFree),
		WithSleepFunc(func(time.Duration) bool { <-gate; return false }),
		WithSpillLimit(4))
	defer rep.Close()
	for e := uint64(0); e < 10; e++ {
		if err := rep.ReportPayload(e, []byte{byte(e)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := rep.SpillDropped(); got != 6 {
		t.Errorf("SpillDropped = %d, want 6", got)
	}
	if got := rep.Pending(); got != 4 {
		t.Errorf("Pending = %d, want 4", got)
	}
	close(gate)
}
