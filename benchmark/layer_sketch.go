package main

import (
	"github.com/hifind/hifind/internal/core"
	"github.com/hifind/hifind/internal/sketch"
)

// sketchRows times the k-ary sketch: the shared key-power step, one
// verifier-sized structure's plan fill + counter writes, and the
// per-key estimate detection calls on candidates.
func sketchRows(ms *metricSet, h *head) error {
	sk, err := sketch.New(core.PaperRecorderConfig(componentSeed).Verifier, componentSeed^0x05)
	if err != nil {
		return err
	}
	keys := h.dipDportKeys()
	powers := make([]sketch.KeyPowers, len(keys))
	ms.setSamples("sketch.powers_ns_per_key", timePasses(len(keys), nil, func() {
		for i, k := range keys {
			powers[i] = sketch.PowersOf(k)
		}
	}))
	plan := sk.NewPlan()
	ms.setSamples("sketch.update_ns_per_op", timePasses(len(keys), sk.Reset, func() {
		for i, e := range h.events {
			sk.FillPlan(powers[i], plan)
			sk.UpdateAt(plan, e.value())
		}
	}))
	ms.setSamples("sketch.estimate_ns_per_op", timePasses(len(keys), nil, func() {
		for _, k := range keys {
			sinkF64 += sk.Estimate(k)
		}
	}))
	return nil
}
