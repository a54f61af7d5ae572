// Package netflow exercises bounded-queue on an ingestion path: data
// channels need explicit, configuration-derived capacities.
package netflow

import (
	"os"
	"time"
)

type Event struct {
	Key uint64
}

type Config struct {
	Depth int
}

// defaultDepth is a named constant: an acceptable, greppable,
// overridable source for a capacity.
const defaultDepth = 1024

func Build(cfg Config) []chan Event {
	unbuffered := make(chan Event)    // want `unbuffered channel of Event on an ingestion path`
	literal := make(chan Event, 4096) // want `channel of Event sized by the literal 4096`
	fromCfg := make(chan Event, cfg.Depth)
	fromConst := make(chan Event, defaultDepth)
	return []chan Event{unbuffered, literal, fromCfg, fromConst}
}

// Signals shows the control-plane exemptions: struct{}, bool, error,
// time.Time and os.Signal channels are not data queues.
func Signals() {
	done := make(chan struct{})
	flips := make(chan bool, 1)
	errs := make(chan error, 1)
	ticks := make(chan time.Time)
	sigs := make(chan os.Signal, 1)
	_, _, _, _, _ = done, flips, errs, ticks, sigs
}
