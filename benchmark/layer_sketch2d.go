package main

import (
	"github.com/hifind/hifind/internal/core"
	"github.com/hifind/hifind/internal/netmodel"
	"github.com/hifind/hifind/internal/sketch"
	"github.com/hifind/hifind/internal/sketch2d"
)

// maxConcentrationKeys bounds the x-keys the concentration test is
// timed on; detection runs it once per scan alert, a few per interval.
const maxConcentrationKeys = 2000

// sketch2dRows times the {SIP,Dport}×{DIP} classification sketch: the
// per-update matrix write and the Phase-2 concentration test.
func sketch2dRows(ms *metricSet, h *head) error {
	s2, err := sketch2d.New(core.PaperRecorderConfig(componentSeed).TwoD, componentSeed^0x08)
	if err != nil {
		return err
	}
	xKeys := make([]uint64, len(h.events))
	xp := make([]sketch.KeyPowers, len(h.events))
	yp := make([]sketch.KeyPowers, len(h.events))
	for i, e := range h.events {
		xKeys[i] = netmodel.PackSIPDport(e.sip, e.dport)
		xp[i] = sketch.PowersOf(xKeys[i])
		yp[i] = sketch.PowersOf(uint64(e.dip))
	}
	plan := s2.NewPlan()
	ms.setSamples("sketch2d.update_ns_per_op", timePasses(len(h.events), s2.Reset, func() {
		for i, e := range h.events {
			s2.FillPlan(xp[i], yp[i], plan)
			s2.UpdateAt(plan, e.value())
		}
	}))
	probe := xKeys
	if len(probe) > maxConcentrationKeys {
		probe = probe[:maxConcentrationKeys]
	}
	dcfg := core.DetectorConfig{TwoDTopP: 5, TwoDPhi: 0.8} // the detector's defaults
	perKey := timePasses(len(probe), nil, func() {
		for _, k := range probe {
			if s2.Concentrated(k, dcfg.TwoDTopP, dcfg.TwoDPhi).Concentrated {
				sinkU64++
			}
		}
	})
	for i := range perKey {
		perKey[i] /= 1e3
	}
	ms.setSamples("sketch2d.concentrated_us_per_key", perKey)
	return nil
}
