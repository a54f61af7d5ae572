package main

import (
	"time"

	"github.com/hifind/hifind/internal/flowcache"
	"github.com/hifind/hifind/internal/netmodel"
)

// flowcacheEntries is the size the -flowcache flag documents and the
// cache benchmark used; the cache is off by default, so these rows say
// what turning it on would buy on this workload's key stream.
const flowcacheEntries = 16384

// flowcacheRows replays the key stream through a standalone flow cache
// with a counting flush sink, draining it at every interval's end as
// the recorder's rotation does.
func flowcacheRows(ms *metricSet, h *head) error {
	var flushed int64
	fc, err := flowcache.New(flowcacheEntries, func(sip, dip netmodel.IPv4, dport uint16, syns, acks int64) {
		flushed += syns + acks
	})
	if err != nil {
		return err
	}
	var (
		addNs   []float64
		flushMs []float64
		stats   flowcache.Stats
	)
	for pass := 0; pass < componentPasses; pass++ {
		fc.Clear()
		var add time.Duration
		begin := 0
		for _, end := range h.eventEnds {
			t0 := time.Now()
			for _, e := range h.events[begin:end] {
				if e.syn {
					fc.Add(e.sip, e.dip, e.dport, 1, 0)
				} else {
					fc.Add(e.sip, e.dip, e.dport, 0, 1)
				}
			}
			add += time.Since(t0)
			t1 := time.Now()
			fc.FlushAll()
			flushMs = append(flushMs, float64(time.Since(t1))/1e6)
			begin = end
		}
		addNs = append(addNs, float64(add)/float64(len(h.events)))
		stats = fc.Stats()
	}
	sinkU64 += uint64(flushed)
	ms.setSamples("flowcache.add_ns_per_op", addNs)
	ms.setSamples("flowcache.flush_ms", flushMs)
	ms.set("flowcache.hit_ratio", float64(stats.Hits)/float64(stats.Hits+stats.Misses))
	ms.set("flowcache.evictions_per_kpkt", 1e3*float64(stats.Evictions)/float64(len(h.events)))
	return nil
}
