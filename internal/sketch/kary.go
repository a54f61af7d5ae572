package sketch

import "fmt"

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
	Table   // H rows of K counters and their total, for the k-ary estimator
	params  Params
	seed    uint64
	hash    []Poly4
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
		Table:   NewTable(params.Stages, params.Buckets),
		params:  params,
		seed:    seed,
		hash:    make([]Poly4, params.Stages),
		scratch: make([]float64, params.Stages),
	}
	state := seed
	for i := range s.hash {
		s.hash[i] = NewPoly4(&state)
	}
	return s, nil
}

// Params returns the sketch geometry.
func (s *Sketch) Params() Params { return s.params }

// Update adds v to the key's counter in every stage (paper Table 2 UPDATE).
func (s *Sketch) Update(key uint64, v int32) {
	for i, h := range s.hash {
		s.Counts[i][h.HashRange(key, s.params.Buckets)] += v
	}
	s.Sum += int64(v)
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
		c := float64(s.Counts[i][h.HashRange(key, s.params.Buckets)])
		est[i] = (c - float64(s.Sum)/k) / (1 - 1/k)
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

const sketchMagic = uint32(0x48694b53) // "HiKS"

// MarshalBinary serializes the sketch so routers can ship it to the
// aggregation site: the table's wire block under magic "HiKS" with
// geometry words stages and buckets.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	return s.MarshalBlock(sketchMagic, s.seed, uint32(s.params.Stages), uint32(s.params.Buckets)), nil
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
	return s.AddBlock(data, apply, sketchMagic, s.seed, uint32(s.params.Stages), uint32(s.params.Buckets))
}
