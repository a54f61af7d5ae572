// Package timeseries implements the forecast models HiFIND applies to
// whole sketches (paper §3.1, §3.3). The forecaster reads the sketch
// counters observed in each interval and produces a forecast-error grid
//
//	e(t) = M0(t) − Mf(t)
//
// which is the detection signal: a key whose forecast error is large has
// changed behaviour, and the reversible sketch's INFERENCE recovers it.
package timeseries

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/hifind/hifind/internal/sketch"
)

// EWMA is the exponentially weighted moving average forecaster of paper
// equation (1):
//
//	Mf(t) = α·M0(t−1) + (1−α)·Mf(t−1)   for t > 2
//	Mf(2) = M0(1)
//
// applied independently to every bucket of every stage. The first interval
// yields no forecast (and therefore no detection).
type EWMA struct {
	alpha    float64
	stages   int
	buckets  int
	t        int         // intervals observed so far
	forecast sketch.Grid // Mf(t) for the upcoming interval
	err      sketch.Grid // reusable output buffer
}

// NewEWMA builds a forecaster for sketches with the given geometry.
// alpha must lie in (0,1]; the paper does not publish its value and 0.5 is
// this implementation's default (see DefaultAlpha).
func NewEWMA(alpha float64, stages, buckets int) (*EWMA, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("timeseries: alpha %v out of (0,1]", alpha)
	}
	if stages < 1 || buckets < 1 {
		return nil, fmt.Errorf("timeseries: bad geometry %dx%d", stages, buckets)
	}
	return &EWMA{
		alpha:    alpha,
		stages:   stages,
		buckets:  buckets,
		forecast: sketch.NewGrid(stages, buckets),
		err:      sketch.NewGrid(stages, buckets),
	}, nil
}

// DefaultAlpha is the smoothing constant used by the HiFIND pipeline when
// none is configured.
const DefaultAlpha = 0.5

// Intervals returns how many intervals have been observed.
func (e *EWMA) Intervals() int { return e.t }

// Observe feeds the counters recorded in the interval that just ended and
// returns the forecast-error grid e(t) = M0(t) − Mf(t), or (nil, false)
// for the first interval, which has no forecast yet. counts is only read
// during the call and not retained, so a caller may pass a sketch's live
// counters and reset them afterwards. The returned grid is reused by the
// next Observe call; callers needing to retain it must copy it.
func (e *EWMA) Observe(counts [][]int32) (sketch.Grid, bool, error) {
	if len(counts) != e.stages {
		return nil, false, fmt.Errorf("timeseries: %d stages, want %d", len(counts), e.stages)
	}
	for j := range counts {
		if len(counts[j]) != e.buckets {
			return nil, false, fmt.Errorf("timeseries: stage %d has %d buckets, want %d",
				j, len(counts[j]), e.buckets)
		}
	}
	e.t++
	if e.t == 1 {
		// Mf(2) = M0(1): the first observation seeds the forecast.
		for j := 0; j < e.stages; j++ {
			dst, src := e.forecast[j], counts[j]
			for i := range dst {
				dst[i] = float64(src[i])
			}
		}
		return nil, false, nil
	}
	// Error for this interval against the standing forecast, then roll the
	// forecast forward with this interval's observation.
	for j := 0; j < e.stages; j++ {
		fc, ob, er := e.forecast[j], counts[j], e.err[j]
		a := e.alpha
		for i := range fc {
			o := float64(ob[i])
			er[i] = o - fc[i]
			fc[i] = a*o + (1-a)*fc[i]
		}
	}
	return e.err, true, nil
}

// Reset returns the forecaster to its initial state.
func (e *EWMA) Reset() {
	e.t = 0
	e.forecast.Zero()
	e.err.Zero()
}

const ewmaMagic = uint32(0x4869454d) // "HiEM"

// MarshalBinary serializes the forecaster (geometry, clock and standing
// forecast) so a detector can checkpoint across restarts.
func (e *EWMA) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 28+8*e.stages*e.buckets)
	buf = binary.LittleEndian.AppendUint32(buf, ewmaMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(e.stages))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(e.buckets))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(e.t))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.alpha))
	for j := range e.forecast {
		for _, v := range e.forecast[j] {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	return buf, nil
}

// UnmarshalBinary restores a forecaster serialized with MarshalBinary into
// e, which must have been constructed with the same geometry and alpha.
func (e *EWMA) UnmarshalBinary(data []byte) error {
	if len(data) < 24 {
		return fmt.Errorf("timeseries: truncated header")
	}
	if binary.LittleEndian.Uint32(data) != ewmaMagic {
		return fmt.Errorf("timeseries: bad magic")
	}
	stages := int(binary.LittleEndian.Uint32(data[4:]))
	buckets := int(binary.LittleEndian.Uint32(data[8:]))
	t := int(binary.LittleEndian.Uint32(data[12:]))
	alpha := math.Float64frombits(binary.LittleEndian.Uint64(data[16:]))
	if stages != e.stages || buckets != e.buckets {
		return fmt.Errorf("timeseries: geometry %dx%d does not match %dx%d",
			stages, buckets, e.stages, e.buckets)
	}
	// Bitwise comparison: the serialized alpha must round-trip exactly,
	// and comparing bit patterns states that without a float ==.
	if math.Float64bits(alpha) != math.Float64bits(e.alpha) {
		return fmt.Errorf("timeseries: alpha %v does not match %v", alpha, e.alpha)
	}
	want := 24 + 8*stages*buckets
	if len(data) != want {
		return fmt.Errorf("timeseries: body length %d, want %d", len(data), want)
	}
	off := 24
	for j := range e.forecast {
		for i := range e.forecast[j] {
			e.forecast[j][i] = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
			off += 8
		}
	}
	e.t = t
	return nil
}
