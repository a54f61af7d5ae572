package main

import (
	"fmt"
	"io"
	"time"
)

// ledgerRows states how far the rows add up. coverage is the traced
// pass's decode+observe+end_interval+emit self time over the untraced
// replay's wall time; observe_coverage is the recorder's per-packet cost
// rebuilt from the standalone component rows over the measured one;
// trace_overhead is traced over untraced wall. Coverage outside
// [0.85, 1.15] is reported on warn.
func ledgerRows(ms *metricSet, sr *spanRecorder, h *head, traced, untraced time.Duration, warn io.Writer) {
	self := sr.selfTime()
	var covered time.Duration
	for _, name := range []string{"decode", "observe", "end_interval", "emit"} {
		covered += self[name]
	}
	coverage := float64(covered) / float64(untraced)
	ms.set("ledger.coverage", coverage)
	ms.set("ledger.trace_overhead", float64(traced)/float64(untraced))
	if coverage < 0.85 || coverage > 1.15 {
		fmt.Fprintf(warn, "warning: ledger.coverage %.3f is outside [0.85, 1.15]: the spans do not add up to the untraced replay\n", coverage)
	}

	v := func(name string) float64 { return ms.values[name].Value }
	// Per recorded event the fused update computes five key-power sets,
	// fills and writes three reversible sketches, three verifiers and two
	// 2D sketches; a SYN also writes the original sketch and a SYN/ACK
	// also inserts into the service filter. update_share of packets are
	// such events.
	syns := 0
	for _, e := range h.events {
		if e.syn {
			syns++
		}
	}
	synShare := float64(syns) / float64(len(h.events))
	perEvent := 5*v("sketch.powers_ns_per_key") + 3*v("revsketch.update_ns_per_op") +
		(3+synShare)*v("sketch.update_ns_per_op") + 2*v("sketch2d.update_ns_per_op") +
		(1-synShare)*v("bloom.add_ns_per_op")
	ms.set("ledger.observe_coverage", v("core.update_share")*perEvent/v("core.observe_ns_per_pkt"))
}
