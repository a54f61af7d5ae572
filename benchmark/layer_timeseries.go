package main

import (
	"time"

	"github.com/hifind/hifind/internal/core"
	"github.com/hifind/hifind/internal/timeseries"
)

// timeseriesRows times the forecast step every interval pays whatever
// the traffic: six EWMA.Observe calls over the snapshots of the three
// reversible sketches and their three verifiers, at paper size.
func timeseriesRows(ms *metricSet, h *head) error {
	rec, err := core.NewRecorder(core.PaperRecorderConfig(componentSeed))
	if err != nil {
		return err
	}
	snapshots := func() [][][]int32 {
		return [][][]int32{
			rec.RSSipDport.Snapshot(), rec.RSDipDport.Snapshot(), rec.RSSipDip.Snapshot(),
			rec.VerSipDport.Snapshot(), rec.VerDipDport.Snapshot(), rec.VerSipDip.Snapshot(),
		}
	}
	var forecasters []*timeseries.EWMA
	for _, s := range snapshots() {
		fc, err := timeseries.NewEWMA(timeseries.DefaultAlpha, len(s), len(s[0]))
		if err != nil {
			return err
		}
		forecasters = append(forecasters, fc)
	}
	var perInterval []float64
	begin := 0
	for _, end := range h.pktEnds {
		for _, p := range h.pkts[begin:end] {
			rec.Observe(p)
		}
		begin = end
		t0 := time.Now()
		for i, s := range snapshots() {
			if _, _, err := forecasters[i].Observe(s); err != nil {
				return err
			}
		}
		perInterval = append(perInterval, float64(time.Since(t0))/1e6)
		rec.Reset()
	}
	ms.setSamples("timeseries.observe_ms_per_interval", perInterval)
	return nil
}
