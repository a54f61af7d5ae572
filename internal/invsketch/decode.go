package invsketch

import (
	"fmt"
	"sort"

	"github.com/hifind/hifind/internal/sketch"
)

// KeyEstimate is one key recovered by DecodeCounts with its estimated value.
type KeyEstimate struct {
	Key      uint64
	Estimate float64
}

// DecodeOptions tunes the bucket decode. The zero value asks for the
// defaults documented on each field.
type DecodeOptions struct {
	// BucketFraction scales the threshold for the per-bucket pre-filter:
	// a bucket is decoded when its change counter is at least
	// BucketFraction×threshold. Below 1 it tolerates negative collision
	// noise dragging a true key's bucket under the nominal threshold;
	// the garbage the looser filter admits dies at the estimate check.
	// Default: 0.5.
	BucketFraction float64
	// FingerprintSlack is the base tolerance of the fingerprint
	// verifier. A bucket's fpsum/count ratio may deviate from the
	// decoded key's fingerprint by at most
	//
	//	FingerprintSlack + 255·max(0, count−estimate)/count
	//
	// — the second term is the exact worst-case perturbation the
	// bucket's estimated noise share can cause (each noise unit moves
	// fpsum by at most 255), so true keys are never rejected; the base
	// term absorbs estimator error. Exact single-key buckets land at 0.
	// Default 8.
	FingerprintSlack float64
	// MaxKeys caps the number of keys returned (largest estimates
	// first). Default: 4096.
	MaxKeys int
	// Verify, when set, is consulted for every decoded key before it is
	// accepted — the same hook revsketch.InferenceOptions offers.
	Verify func(key uint64, estimate float64) bool
}

func (o DecodeOptions) withDefaults() DecodeOptions {
	if o.BucketFraction == 0 {
		o.BucketFraction = 0.5
	}
	if o.FingerprintSlack == 0 {
		o.FingerprintSlack = 8
	}
	if o.MaxKeys == 0 {
		o.MaxKeys = 4096
	}
	return o
}

// DecodeCounts recovers heavy keys directly from the sketch's own
// counters, returning every key whose estimated value is at least
// threshold, largest first.
//
// One pass over the buckets: a bucket whose change counter clears the
// pre-filter has its key read out bit by bit (bit i is 1 iff the bit-i
// counter holds the majority of the count — the heavy changer drowns
// the light keys sharing the bucket), then the candidate must (a)
// re-hash to the bucket it was decoded from, (b) re-estimate above the
// threshold under the k-ary mean-corrected median estimator, and (c)
// match the bucket's fingerprint sum within the noise-adaptive slack.
// Collision garbage fails (a) with probability 1−1/Buckets; whatever
// survives faces (b), (c) and the caller's Verify. Work is
// O(Stages × Buckets × KeyBits) with no search.
func (s *Sketch) DecodeCounts(threshold float64, opts DecodeOptions) ([]KeyEstimate, error) {
	if threshold <= 0 {
		return nil, fmt.Errorf("invsketch: decode threshold %v must be positive", threshold)
	}
	opts = opts.withDefaults()
	bucketFloor := opts.BucketFraction * threshold
	// Each stage's sum over the change-counter fields: the k-ary
	// estimator corrects against the stage's total change, not the
	// folded key material. Summed from the int32 cells rather than taken
	// from s.total, which differs from them once a cell wraps.
	fields := s.params.Fields()
	totals := make([]float64, s.params.Stages)
	for j := range totals {
		for b := 0; b < s.params.Buckets; b++ {
			totals[j] += float64(s.rows[j][b*fields])
		}
	}
	seen := make(map[uint64]bool)
	var out []KeyEstimate
	for j := 0; j < s.params.Stages; j++ {
		row := s.rows[j]
		for b := 0; b < s.params.Buckets; b++ {
			base := b * fields
			count := float64(row[base])
			if count < bucketFloor {
				continue
			}
			// Bit-majority key readout.
			var key uint64
			for i := 0; i < s.params.KeyBits; i++ {
				if 2*float64(row[base+2+i]) > count {
					key |= uint64(1) << uint(i)
				}
			}
			if s.BucketIndex(j, key) != b {
				continue // decoded bits don't hash here: multi-key garbage
			}
			if seen[key] {
				continue
			}
			est := s.estimateCounts(totals, key)
			if est < threshold {
				continue
			}
			noise := count - est
			if noise < 0 {
				noise = 0
			}
			allowed := opts.FingerprintSlack + 255*noise/count
			fpRatio := float64(row[base+1]) / count
			if d := fpRatio - float64(s.Fingerprint(key)); d > allowed || d < -allowed {
				continue // fingerprint sum disagrees: corrupted readout
			}
			if opts.Verify != nil && !opts.Verify(key, est) {
				continue
			}
			seen[key] = true
			out = append(out, KeyEstimate{Key: key, Estimate: est})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Estimate > out[b].Estimate {
			return true
		}
		if out[a].Estimate < out[b].Estimate {
			return false
		}
		return out[a].Key < out[b].Key // deterministic tie-break
	})
	if len(out) > opts.MaxKeys {
		out = out[:opts.MaxKeys]
	}
	return out, nil
}

// estimateCounts estimates a key's value with the k-ary mean-corrected
// median estimator over the change counters, correcting against
// per-stage change totals.
func (s *Sketch) estimateCounts(totals []float64, key uint64) float64 {
	fields := s.params.Fields()
	k := float64(s.params.Buckets)
	est := s.scratch
	for j := 0; j < s.params.Stages; j++ {
		c := float64(s.rows[j][s.BucketIndex(j, key)*fields])
		est[j] = (c - totals[j]/k) / (1 - 1/k)
	}
	return sketch.MedianInPlace(est)
}

// Estimate reconstructs the key's value from the sketch's own counters.
func (s *Sketch) Estimate(key uint64) float64 {
	k := float64(s.params.Buckets)
	fields := s.params.Fields()
	est := s.scratch
	for j := 0; j < s.params.Stages; j++ {
		c := float64(s.rows[j][s.BucketIndex(j, key)*fields])
		est[j] = (c - float64(s.total)/k) / (1 - 1/k)
	}
	return sketch.MedianInPlace(est)
}
