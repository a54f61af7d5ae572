package hifind_test

// The two facade-level identity statements over the golden corpus.
//
// TestFlowCacheIdentityMatrix: every golden trace is replayed with the
// flow-aggregation cache off and on, and both the rendered per-interval
// alert output AND the serialized cross-interval state must be
// byte-identical to the cache-less baseline.
//
// TestReplicaIngestIdentity: the multi-core ingestion route — a Detector
// plus one Recorder per extra feeding goroutine, summed at rotation by
// EndIntervalMerged — must be invisible in detection behavior and in
// the checkpoint format, on adversarial and benign traffic alike.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	hifind "github.com/hifind/hifind"
	"github.com/hifind/hifind/internal/netmodel"
	"github.com/hifind/hifind/internal/pcap"
	"github.com/hifind/hifind/internal/trace"
)

func TestFlowCacheIdentityMatrix(t *testing.T) {
	for name, sc := range goldenScenarios() {
		t.Run(name, func(t *testing.T) {
			cfg := sc.cfg
			g, err := trace.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			w := pcap.NewWriter(&buf)
			if err := g.Stream(w.WritePacket); err != nil {
				t.Fatal(err)
			}
			capture := buf.Bytes()
			edge := []string{fmt.Sprintf("%s/16", cfg.InternalPrefix)}

			seq := newCompact(t, sc.options()...)
			wantAlerts := replayGolden(t, capture, edge, seq)
			wantState, err := seq.SaveState()
			if err != nil {
				t.Fatal(err)
			}
			if name != "benign-only" && wantAlerts == "" {
				t.Fatal("cache-less baseline produced no output; the matrix would be vacuous")
			}

			cached := newCompact(t, append(sc.options(), hifind.WithFlowCache(1024))...)
			if got := replayGolden(t, capture, edge, cached); got != wantAlerts {
				t.Errorf("cached: alerts diverged from cache-less:\n%s", goldenDiff(wantAlerts, got))
			}
			state, err := cached.SaveState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(state, wantState) {
				t.Error("cached: serialized state not byte-identical to cache-less")
			}
		})
	}
}

// replicaSite is the multi-core (equally: multi-router) deployment at
// the facade: a central Detector plus two Recorders built with the same
// options.
type replicaSite struct {
	det  *hifind.Detector
	recs [2]*hifind.Recorder
}

func newReplicaSite(t *testing.T, opts ...hifind.Option) replicaSite {
	t.Helper()
	s := replicaSite{det: newCompact(t, opts...)}
	for i := range s.recs {
		r, err := hifind.NewRecorder(append([]hifind.Option{hifind.WithCompactSketches()}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		s.recs[i] = r
	}
	return s
}

// endInterval deals pkts round-robin to the three observers, each fed
// from its own goroutine, then merges the Recorders' snapshots into the
// Detector's interval.
func (s replicaSite) endInterval(t *testing.T, pkts []netmodel.Packet) hifind.Result {
	t.Helper()
	observers := []func(hifind.Packet){s.det.Observe, s.recs[0].Observe, s.recs[1].Observe}
	var wg sync.WaitGroup
	for g, observe := range observers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := g; j < len(pkts); j += len(observers) {
				observe(toPublic(pkts[j]))
			}
		}()
	}
	wg.Wait()
	states := make([][]byte, 0, len(s.recs))
	for _, r := range s.recs {
		state, err := r.StateSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		states = append(states, state)
	}
	res, err := s.det.EndIntervalMerged(states...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestReplicaIngestIdentity(t *testing.T) {
	for name, sc := range goldenScenarios() {
		t.Run(name, func(t *testing.T) {
			intervals := intervalPackets(t, sc.cfg)
			seq := newCompact(t, sc.options()...)
			site := newReplicaSite(t, sc.options()...)
			var want, got []hifind.Result
			for _, pkts := range intervals {
				for _, p := range pkts {
					seq.Observe(toPublic(p))
				}
				res, err := seq.EndInterval()
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, res)
				got = append(got, site.endInterval(t, pkts))
			}
			wantAlerts, gotAlerts := formatGolden(want), formatGolden(got)
			if name != "benign-only" && wantAlerts == "" {
				t.Fatal("sequential baseline produced no output; the identity would be vacuous")
			}
			if gotAlerts != wantAlerts {
				t.Errorf("replica ingest: alerts diverged from sequential:\n%s", goldenDiff(wantAlerts, gotAlerts))
			}
			wantState, err := seq.SaveState()
			if err != nil {
				t.Fatal(err)
			}
			gotState, err := site.det.SaveState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotState, wantState) {
				t.Error("replica ingest: serialized state not byte-identical to sequential")
			}
		})
	}
}
