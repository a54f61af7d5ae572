package main

import (
	"time"

	"github.com/hifind/hifind/internal/telemetry"
)

// telemetryEvents is how many alert events the emit row encodes per pass.
const telemetryEvents = 2000

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// telemetryRows times the NDJSON sink on an alert-shaped event, the
// per-alert cost an alert-heavy interval pays on its way out.
func telemetryRows(ms *metricSet) {
	w := &countingWriter{}
	sink := telemetry.NewJSONSink(w)
	ev := telemetry.Event{Time: time.Unix(1115683200, 0).UTC(), Kind: "alert", Fields: map[string]any{
		"type": "hscan", "interval": 12, "magnitude": 353.88055555555553,
		"attacker": "198.30.0.131", "port": uint16(4899), "fanout": 64,
	}}
	ms.setSamples("telemetry.emit_ns_per_event", timePasses(telemetryEvents, nil, func() {
		for i := 0; i < telemetryEvents; i++ {
			sink.Emit(ev)
		}
	}))
	sinkU64 += uint64(w.n)
}
