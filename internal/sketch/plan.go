package sketch

import "math/bits"

// Plan caches the per-stage bucket indices one key selects in this
// sketch — the complete hash work of an Update, done once and
// replayable by UpdateAt. Plans are the recorder's update currency:
// the recorder fills one plan per structure per packet from shared
// KeyPowers, then applies the counter writes through the cached
// indices. A Plan is sized for the sketch that created it and is only
// valid against sketches of the same geometry; it holds no counters, so
// reusing one across calls is free and allocation-free.
type Plan struct {
	idx []uint32
}

// NewPlan returns a reusable bucket plan sized for this sketch. The
// single allocation happens here; FillPlan and UpdateAt never allocate.
func (s *Sketch) NewPlan() *Plan {
	return &Plan{idx: make([]uint32, s.params.Stages)}
}

// FillPlan computes the bucket index the key (given by its precomputed
// powers) selects in every stage. The indices are bit-identical to the
// ones Update derives: HashRangePow equals HashRange for the key the
// powers came from.
func (s *Sketch) FillPlan(kp KeyPowers, p *Plan) {
	shift := 61 - uint(bits.Len(uint(s.params.Buckets-1)))
	mask := uint64(s.params.Buckets - 1)
	idx := p.idx
	for i, h := range s.hash {
		idx[i] = uint32((h.HashPow(kp) >> shift) & mask)
	}
}

// UpdateAt adds v to the planned bucket of every stage — UPDATE with
// the hashing already paid for.
func (s *Sketch) UpdateAt(p *Plan, v int32) {
	for i, ix := range p.idx {
		s.Counts[i][ix] += v
	}
	s.Sum += int64(v)
}
