// Package core is a golden-test stand-in for the recorder's update
// path: hotpath-alloc extends over internal/core's per-packet
// surface — Observe/ObserveFlow, the update* internals, and the
// FillPlan/UpdateAt plan API — so allocation in any of them must be
// flagged, while constructors and plan pre-allocation stay free.
package core

import (
	"fmt"

	"github.com/hifind/hifind/internal/telemetry"
)

type Plan struct {
	idx []uint32
}

type Recorder struct {
	counts [8]int32
	plan   Plan
	labels []string
}

func (r *Recorder) Observe(key uint64) {
	scratch := make([]uint32, 8) // want `make allocates in hot path Observe`
	_ = scratch
	r.counts[key&7]++
}

func (r *Recorder) ObserveFlow(key uint64, n int) {
	r.labels = append(r.labels, "flow") // want `append allocates in hot path ObserveFlow`
	r.counts[key&7] += int32(n)
}

func (r *Recorder) update(key uint64, v int32) {
	lbl := fmt.Sprintf("k%d", key) // want `fmt.Sprintf allocates in hot path update`
	_ = lbl
	r.counts[key&7] += v
}

func (r *Recorder) FillPlan(key uint64) {
	p := new(Plan) // want `new allocates in hot path FillPlan`
	_ = p
	r.plan.idx[0] = uint32(key & 7)
}

func (r *Recorder) UpdateAt(v int32) {
	m := map[int]int32{0: v} // want `map literal allocates in hot path UpdateAt`
	_ = m
	r.counts[r.plan.idx[0]] += v
}

// Clean shows the sanctioned shape: the plan buffer is allocated
// once at construction and every per-packet call only indexes it.
type Clean struct {
	counts [8]int32
	plan   Plan
}

// NewClean is a constructor, not a hot-path operation: allocation is fine.
func NewClean() *Clean {
	return &Clean{plan: Plan{idx: make([]uint32, 8)}}
}

func (c *Clean) Observe(key uint64) {
	c.FillPlan(key)
	c.UpdateAt(1)
}

func (c *Clean) FillPlan(key uint64) {
	for i := range c.plan.idx {
		c.plan.idx[i] = uint32(key & 7)
	}
}

func (c *Clean) UpdateAt(v int32) {
	for _, ix := range c.plan.idx {
		c.counts[ix] += v
	}
}

// Instrumented mirrors the recorder's real wiring: metrics are looked up
// once at construction and only bumped per packet.
type Instrumented struct {
	reg     *telemetry.Registry
	packets *telemetry.Counter
	hwm     *telemetry.Gauge
	lat     *telemetry.Histogram
}

// Observe may bump pre-registered metrics — Add/SetMax/Observe are
// single atomic ops — but must never touch the registry: registration
// takes a lock and allocates the metric and its key.
func (s *Instrumented) Observe(key uint64) {
	s.packets.Add(1)
	s.hwm.SetMax(float64(key))
	s.lat.Observe(float64(key))
	c := s.reg.Counter("core_late_total", "registered per packet") // want `telemetry.Counter is not allocation-free`
	c.Inc()
}

// NewInstrumented is construction: registry lookups are sanctioned here.
func NewInstrumented(reg *telemetry.Registry) *Instrumented {
	return &Instrumented{
		reg:     reg,
		packets: reg.Counter("core_packets_total", "packets observed"),
		hwm:     reg.Gauge("core_key_high_water", "largest key seen"),
		lat:     reg.Histogram("core_key_seconds", "key as a latency stand-in", nil),
	}
}
