package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/hifind/hifind/internal/core"
)

// coreRecorderRows times a standalone recorder at the paper's geometry
// on the head of the trace: per-packet and per-flow-record observe, the
// §5.5.2 memory-access count, allocations, and the per-interval state
// costs (marshal for multi-router shipping, reset at rotation).
func coreRecorderRows(ms *metricSet, h *head) error {
	rec, err := core.NewRecorder(core.PaperRecorderConfig(componentSeed))
	if err != nil {
		return err
	}
	var (
		perPkt []float64
		allocs []float64
		mem    runtime.MemStats
	)
	for pass := 0; pass < componentPasses; pass++ {
		runtime.ReadMemStats(&mem)
		before := mem.Mallocs
		t0 := time.Now()
		for _, p := range h.pkts {
			rec.Observe(p)
		}
		perPkt = append(perPkt, float64(time.Since(t0))/float64(len(h.pkts)))
		runtime.ReadMemStats(&mem)
		allocs = append(allocs, 1e3*float64(mem.Mallocs-before)/float64(len(h.pkts)))
		if pass == 0 {
			// The access counter is cumulative and never reset, so it is
			// read against the packet count after the first pass only.
			ms.set("core.mem_accesses_per_pkt", float64(rec.MemoryAccesses())/float64(rec.Packets()))
		}
		if pass < componentPasses-1 {
			rec.Reset()
		}
	}
	ms.setSamples("core.observe_ns_per_pkt", perPkt)
	ms.setSamples("core.allocs_per_kpkt", allocs)
	ms.set("core.update_share", float64(len(h.events))/float64(len(h.pkts)))

	var marshal, reset []float64
	for pass := 0; pass < componentPasses; pass++ {
		t0 := time.Now()
		state, err := rec.MarshalBinary()
		if err != nil {
			return err
		}
		marshal = append(marshal, float64(time.Since(t0))/1e6)
		ms.set("core.state_bytes", float64(len(state)))
	}
	for pass := 0; pass < componentPasses; pass++ {
		t0 := time.Now()
		rec.Reset()
		reset = append(reset, float64(time.Since(t0))/1e6)
	}
	ms.setSamples("core.marshal_ms", marshal)
	ms.setSamples("core.reset_ms", reset)

	if len(h.flows) == 0 {
		return fmt.Errorf("head of the trace holds no flow records")
	}
	ms.setSamples("core.observe_flow_ns_per_rec", timePasses(len(h.flows), rec.Reset, func() {
		for _, f := range h.flows {
			rec.ObserveFlow(f)
		}
	}))
	return nil
}

// coreDetectorRows replays the whole capture into a standalone
// core.Detector at the paper's geometry and default thresholds, which
// exposes what the facade hides: the program-reported Diag of every
// interval (inference time, candidate and recovered-key counts).
func coreDetectorRows(ms *metricSet, c capture) error {
	det, err := core.NewDetector(core.PaperRecorderConfig(componentSeed), core.DetectorConfig{})
	if err != nil {
		return err
	}
	var (
		outside                            []float64
		inference, flush, candidates, keys float64
		rounds                             int
	)
	err = replayCapture(c, nil, replayHooks{
		observe: func(b *batch) {
			for i := range b.pkts {
				det.Observe(b.pkts[i])
			}
			for i := range b.flows {
				det.ObserveFlow(b.flows[i])
			}
		},
		endInterval: func(_, round int) error {
			t0 := time.Now()
			res, err := det.EndInterval()
			if err != nil {
				return err
			}
			if round < warmupIntervals {
				return nil
			}
			outside = append(outside, float64(time.Since(t0))/1e6)
			d := res.Diag
			inference += d.InferenceSeconds * 1e3
			flush += d.CacheFlushSeconds * 1e3
			candidates += float64(d.FloodCandidates + d.PairCandidates + d.SourceCandidates)
			keys += float64(d.KeysRecovered)
			rounds++
			return nil
		},
	})
	if err != nil {
		return err
	}
	if rounds == 0 {
		return fmt.Errorf("core detector pass saw no interval past warm-up")
	}
	n := float64(rounds)
	ms.set("core.end_interval_ms_p50", median(outside))
	ms.set("core.inference_ms_per_interval", inference/n)
	ms.set("core.cache_flush_ms", flush/n)
	ms.set("core.candidates_per_interval", candidates/n)
	ms.set("core.keys_recovered_per_interval", keys/n)
	share := 0.0
	if candidates > 0 {
		share = keys / candidates
	}
	ms.set("core.keys_per_candidate", share)
	return nil
}
