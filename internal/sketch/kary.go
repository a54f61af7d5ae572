package sketch

import (
	"encoding/binary"
	"fmt"
)

// Params configures a k-ary sketch.
type Params struct {
	// Stages is the number of independent hash tables (H in the paper).
	Stages int
	// Buckets is the number of counters per stage (K); must be a power of
	// two so bucket selection is a mask.
	Buckets int
}

// Validate reports whether the parameters describe a buildable sketch.
func (p Params) Validate() error {
	if p.Stages < 1 {
		return fmt.Errorf("sketch: stages %d < 1", p.Stages)
	}
	if !IsPowerOfTwo(p.Buckets) {
		return fmt.Errorf("sketch: buckets %d is not a power of two", p.Buckets)
	}
	if p.Buckets < 2 {
		return fmt.Errorf("sketch: buckets %d < 2", p.Buckets)
	}
	return nil
}

// Sketch is a k-ary sketch: H stages of K counters, each stage indexed by
// an independent 4-universal hash of the key. Counters are int32 because
// HiFIND records signed values (#SYN − #SYN/ACK); int32 matches the
// paper's 13.2 MB memory budget. A Sketch is not safe for concurrent
// use: Update mutates counters and Estimate reuses a scratch buffer that
// keeps the per-key estimate allocation-free.
type Sketch struct {
	params  Params
	seed    uint64
	hash    []Poly4
	counts  [][]int32
	total   int64     // sum of all update values, for the k-ary estimator
	scratch []float64 // per-stage estimates, reused across Estimate calls
}

// New builds an empty sketch. Sketches built with equal params and seed
// share hash functions and may be combined. Construction allocates by
// design and runs at setup, off the per-packet path.
//
//hifind:cold
func New(params Params, seed uint64) (*Sketch, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	s := &Sketch{
		params:  params,
		seed:    seed,
		hash:    make([]Poly4, params.Stages),
		counts:  make([][]int32, params.Stages),
		scratch: make([]float64, params.Stages),
	}
	state := seed
	backing := make([]int32, params.Stages*params.Buckets)
	for i := 0; i < params.Stages; i++ {
		s.hash[i] = NewPoly4(&state)
		s.counts[i] = backing[i*params.Buckets : (i+1)*params.Buckets : (i+1)*params.Buckets]
	}
	return s, nil
}

// Params returns the sketch geometry.
func (s *Sketch) Params() Params { return s.params }

// Seed returns the hash seed.
func (s *Sketch) Seed() uint64 { return s.seed }

// Update adds v to the key's counter in every stage (paper Table 2 UPDATE).
func (s *Sketch) Update(key uint64, v int32) {
	for i, h := range s.hash {
		s.counts[i][h.HashRange(key, s.params.Buckets)] += v
	}
	s.total += int64(v)
}

// BucketIndex returns the bucket the key maps to in one stage. Exposed so
// derived structures (EWMA error grids) can be read for a specific key.
func (s *Sketch) BucketIndex(stage int, key uint64) int {
	return int(s.hash[stage].HashRange(key, s.params.Buckets))
}

// Estimate reconstructs the key's value (paper Table 2 ESTIMATE) using the
// mean-corrected per-stage estimate
//
//	v_j = (count_j − total/K) / (1 − 1/K)
//
// and returns the median across stages, the unbiased k-ary estimator.
func (s *Sketch) Estimate(key uint64) float64 {
	k := float64(s.params.Buckets)
	est := s.scratch
	for i, h := range s.hash {
		c := float64(s.counts[i][h.HashRange(key, s.params.Buckets)])
		est[i] = (c - float64(s.total)/k) / (1 - 1/k)
	}
	return MedianInPlace(est)
}

// EstimateGrid applies the same estimator to an external value grid that
// shares this sketch's geometry and hashing — e.g. a forecast-error grid.
// gridTotal must be the sum of one stage of the grid (all stages of a
// well-formed grid have the same total).
func (s *Sketch) EstimateGrid(g Grid, gridTotal float64, key uint64) float64 {
	k := float64(s.params.Buckets)
	est := s.scratch
	for i, h := range s.hash {
		c := g[i][h.HashRange(key, s.params.Buckets)]
		est[i] = (c - gridTotal/k) / (1 - 1/k)
	}
	return MedianInPlace(est)
}

// EstimateGridAtLeast reports whether EstimateGrid(g, gridTotal, key)
// is at least floor, without finishing the estimate once ⌊H/2⌋+1 stages
// fall below floor. That rejection is exact: the median of H values is
// then itself below floor, and for even H the mean of the two middle
// values is at most the upper one, since rounding is monotone.
func (s *Sketch) EstimateGridAtLeast(g Grid, gridTotal float64, key uint64, floor float64) bool {
	k := float64(s.params.Buckets)
	est := s.scratch
	below, reject := 0, len(s.hash)/2+1
	for i, h := range s.hash {
		c := g[i][h.HashRange(key, s.params.Buckets)]
		est[i] = (c - gridTotal/k) / (1 - 1/k)
		if est[i] < floor {
			if below++; below == reject {
				return false
			}
		}
	}
	return MedianInPlace(est) >= floor
}

// Snapshot deep-copies the counter array, e.g. for the forecaster.
func (s *Sketch) Snapshot() [][]int32 {
	out := make([][]int32, s.params.Stages)
	backing := make([]int32, s.params.Stages*s.params.Buckets)
	for i := range s.counts {
		row := backing[i*s.params.Buckets : (i+1)*s.params.Buckets : (i+1)*s.params.Buckets]
		copy(row, s.counts[i])
		out[i] = row
	}
	return out
}

// Total returns the sum of all values updated into the sketch.
func (s *Sketch) Total() int64 { return s.total }

// Occupancy returns the fraction of counters holding a nonzero value,
// averaged over all stages. Sampled at interval rotation it is the
// saturation signal the telemetry layer exposes: as occupancy
// approaches 1 the k-ary estimates lose the sparsity their variance
// bound assumes, which is exactly the condition a DoS against the
// monitor itself would induce.
func (s *Sketch) Occupancy() float64 {
	if s == nil {
		return 0
	}
	var nonzero, total int
	for i := range s.counts {
		row := s.counts[i]
		total += len(row)
		for _, v := range row {
			if v != 0 {
				nonzero++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(nonzero) / float64(total)
}

// Reset zeroes the counters for the next measurement interval. The hash
// functions are kept, so estimates remain comparable across intervals.
func (s *Sketch) Reset() {
	for i := range s.counts {
		row := s.counts[i]
		for j := range row {
			row[j] = 0
		}
	}
	s.total = 0
}

// MemoryBytes returns the counter memory footprint, the number the paper's
// Table 9 compares against per-flow tables.
func (s *Sketch) MemoryBytes() int {
	return s.params.Stages * s.params.Buckets * 4
}

// marshal layout: stages, buckets (uint32 each), seed, total, counters.
const sketchMagic = uint32(0x48694b53) // "HiKS"

// MarshalBinary serializes the sketch so routers can ship it to the
// aggregation site. Counters dominate; the encoding is fixed-width
// little-endian with a magic/version header.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 4+4+4+8+8+4*s.params.Stages*s.params.Buckets)
	buf = binary.LittleEndian.AppendUint32(buf, sketchMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.params.Stages))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.params.Buckets))
	buf = binary.LittleEndian.AppendUint64(buf, s.seed)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.total))
	for i := range s.counts {
		for _, c := range s.counts[i] {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(c))
		}
	}
	return buf, nil
}

// AddBinary adds a MarshalBinary encoding into s: COMBINE (paper Table
// 2) with unit coefficients, read straight from the wire. This is what
// lets HiFIND aggregate per-router sketches at a central site: by
// linearity the sum is the sketch a single router seeing all traffic
// would have built. The encoding must carry s's magic, geometry and
// seed at exactly its length; otherwise AddBinary returns an error and
// s is unchanged. With apply false it only validates, so a caller
// adding several encodings can check them all before changing anything.
func (s *Sketch) AddBinary(data []byte, apply bool) error {
	if len(data) < 28 {
		return fmt.Errorf("sketch: truncated header (%d bytes)", len(data))
	}
	if m := binary.LittleEndian.Uint32(data); m != sketchMagic {
		return fmt.Errorf("sketch: bad magic %#x", m)
	}
	params := Params{
		Stages:  int(binary.LittleEndian.Uint32(data[4:])),
		Buckets: int(binary.LittleEndian.Uint32(data[8:])),
	}
	if params != s.params {
		return fmt.Errorf("sketch: geometry %+v, want %+v", params, s.params)
	}
	if seed := binary.LittleEndian.Uint64(data[12:]); seed != s.seed {
		return fmt.Errorf("sketch: seed %d, want %d", seed, s.seed)
	}
	if want := 28 + 4*s.params.Stages*s.params.Buckets; len(data) != want {
		return fmt.Errorf("sketch: body length %d, want %d", len(data), want)
	}
	if !apply {
		return nil
	}
	s.total += int64(binary.LittleEndian.Uint64(data[20:]))
	off := 28
	for i := range s.counts {
		row := s.counts[i]
		for j := range row {
			row[j] += int32(binary.LittleEndian.Uint32(data[off:]))
			off += 4
		}
	}
	return nil
}
