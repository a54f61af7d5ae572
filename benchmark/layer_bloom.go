package main

import (
	"github.com/hifind/hifind/internal/bloom"
	"github.com/hifind/hifind/internal/core"
	"github.com/hifind/hifind/internal/netmodel"
)

// bloomRows times the active-service filter insert every SYN/ACK pays.
func bloomRows(ms *metricSet, h *head) error {
	f, err := bloom.New(core.PaperRecorderConfig(componentSeed).ServiceCapacity, 0.01, componentSeed^0x0a)
	if err != nil {
		return err
	}
	var keys []uint64
	for _, e := range h.events {
		if !e.syn {
			keys = append(keys, netmodel.PackDIPDport(e.dip, e.dport))
		}
	}
	if len(keys) == 0 {
		keys = []uint64{1}
	}
	ms.setSamples("bloom.add_ns_per_op", timePasses(len(keys), f.Reset, func() {
		for _, k := range keys {
			f.Add(k)
		}
	}))
	return nil
}
