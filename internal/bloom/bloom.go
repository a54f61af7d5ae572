// Package bloom provides a conventional Bloom filter. HiFIND's Phase-3
// false-positive reduction (paper §3.4) needs a memory of "active
// services" — {DIP,Dport} pairs that have produced SYN/ACKs in the past —
// so that a burst of unanswered SYNs toward an address that never hosted
// the service is classified as a misconfiguration rather than a DoS
// attack. A Bloom filter gives that memory in O(1) space per service with
// a controlled false-positive rate, in keeping with the system's
// small-memory design constraints.
package bloom

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/hifind/hifind/internal/sketch"
)

// Filter is a standard Bloom filter over uint64 keys. It is not safe for
// concurrent use.
type Filter struct {
	bits   []uint64
	mask   uint64 // len(bits)*64 − 1; the bit count is a power of two
	hashes []sketch.Poly4
	n      int // insertions, for saturation estimates
}

// New builds a filter sized for approximately capacity insertions at the
// target false-positive probability fpRate (0 < fpRate < 1).
func New(capacity int, fpRate float64, seed uint64) (*Filter, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("bloom: capacity %d < 1", capacity)
	}
	if fpRate <= 0 || fpRate >= 1 {
		return nil, fmt.Errorf("bloom: false-positive rate %v out of (0,1)", fpRate)
	}
	// Optimal m = −n·ln(p)/ln(2)², k = m/n·ln(2); round m up to a power of
	// two so bit selection is a mask.
	mOpt := -float64(capacity) * math.Log(fpRate) / (math.Ln2 * math.Ln2)
	m := 64
	for float64(m) < mOpt {
		m <<= 1
	}
	k := int(math.Round(float64(m) / float64(capacity) * math.Ln2))
	if k < 1 {
		k = 1
	}
	if k > 16 {
		k = 16
	}
	f := &Filter{
		bits:   make([]uint64, m/64),
		mask:   uint64(m - 1),
		hashes: make([]sketch.Poly4, k),
	}
	state := seed
	for i := range f.hashes {
		f.hashes[i] = sketch.NewPoly4(&state)
	}
	return f, nil
}

// Add inserts a key.
func (f *Filter) Add(key uint64) {
	for _, h := range f.hashes {
		b := h.Hash(key) & f.mask
		f.bits[b>>6] |= 1 << (b & 63)
	}
	f.n++
}

// Contains reports whether the key may have been added (false positives
// possible at the configured rate, false negatives never).
func (f *Filter) Contains(key uint64) bool {
	for _, h := range f.hashes {
		b := h.Hash(key) & f.mask
		if f.bits[b>>6]&(1<<(b&63)) == 0 {
			return false
		}
	}
	return true
}

// Len returns the number of Add calls (not distinct keys).
func (f *Filter) Len() int { return f.n }

// MemoryBytes returns the bit-array footprint.
func (f *Filter) MemoryBytes() int { return len(f.bits) * 8 }

// FillRatio returns the fraction of set bits, a saturation diagnostic.
func (f *Filter) FillRatio() float64 {
	set := 0
	for _, w := range f.bits {
		set += popcount(w)
	}
	return float64(set) / float64(len(f.bits)*64)
}

// Reset clears the filter.
func (f *Filter) Reset() {
	for i := range f.bits {
		f.bits[i] = 0
	}
	f.n = 0
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

const filterMagic = uint32(0x4869424c) // "HiBL"

// MarshalBinary serializes the bit array and hash count. The seed is not
// recoverable from the encoding, so UnmarshalBinary and AddBinary must be
// called on a filter constructed with the same parameters; they verify
// shape and touch only the bits and the insertion count.
func (f *Filter) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 16+len(f.bits)*8)
	buf = binary.LittleEndian.AppendUint32(buf, filterMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(f.hashes)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(f.bits)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(f.n))
	for _, w := range f.bits {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf, nil
}

// UnmarshalBinary loads bits serialized from a filter with the same
// construction parameters into f.
func (f *Filter) UnmarshalBinary(data []byte) error {
	if err := f.AddBinary(data, false); err != nil {
		return err
	}
	f.Reset()
	return f.AddBinary(data, true)
}

// AddBinary ORs the bits of a MarshalBinary encoding into f and adds its
// insertion count: Bloom filters are union-able exactly like sketches
// are linear, which is what lets the multi-router aggregation merge each
// router's active-service memory. The encoding must match f's hash
// count and word count; otherwise AddBinary returns an error and f is
// unchanged. With apply false it only validates.
func (f *Filter) AddBinary(data []byte, apply bool) error {
	if len(data) < 16 {
		return errors.New("bloom: truncated header")
	}
	if binary.LittleEndian.Uint32(data) != filterMagic {
		return errors.New("bloom: bad magic")
	}
	k := int(binary.LittleEndian.Uint32(data[4:]))
	words := int(binary.LittleEndian.Uint32(data[8:]))
	if k != len(f.hashes) || words != len(f.bits) {
		return fmt.Errorf("bloom: shape mismatch (k=%d words=%d, have k=%d words=%d)",
			k, words, len(f.hashes), len(f.bits))
	}
	if len(data) != 16+words*8 {
		return fmt.Errorf("bloom: body length %d, want %d", len(data), 16+words*8)
	}
	if !apply {
		return nil
	}
	for i := range f.bits {
		f.bits[i] |= binary.LittleEndian.Uint64(data[16+i*8:])
	}
	f.n += int(binary.LittleEndian.Uint32(data[12:]))
	return nil
}
