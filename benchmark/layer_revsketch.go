package main

import (
	"github.com/hifind/hifind/internal/core"
	"github.com/hifind/hifind/internal/revsketch"
)

// revsketchRows times one 48-bit reversible sketch: mangle + modular
// hash plan fill with its counter writes, and the per-key estimate.
func revsketchRows(ms *metricSet, h *head) error {
	rs, err := revsketch.New(core.PaperRecorderConfig(componentSeed).RS48, componentSeed^0x02)
	if err != nil {
		return err
	}
	keys := h.dipDportKeys()
	plan := rs.NewPlan()
	ms.setSamples("revsketch.update_ns_per_op", timePasses(len(keys), rs.Reset, func() {
		for i, e := range h.events {
			rs.FillPlan(keys[i], plan)
			rs.UpdateAt(plan, e.value())
		}
	}))
	ms.setSamples("revsketch.estimate_ns_per_op", timePasses(len(keys), nil, func() {
		for _, k := range keys {
			sinkF64 += rs.Estimate(k)
		}
	}))
	return nil
}
