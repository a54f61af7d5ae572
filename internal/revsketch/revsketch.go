// Package revsketch implements the reversible sketch of Schweller et al.
// (IMC 2004, Infocom 2006), the data structure HiFIND is built on. A
// reversible sketch is a k-ary sketch whose bucket indices are formed by
// *modular hashing*: the (mangled) key is split into q words and each word
// is hashed independently to a small chunk; the concatenated chunks form
// the bucket index. Because each chunk depends on only one key word, the
// heavy buckets of a stage can be "reverse hashed" back to candidate keys
// word by word — the INFERENCE operation of paper Table 2 that plain
// sketches cannot support.
package revsketch

import (
	"fmt"

	"github.com/hifind/hifind/internal/sketch"
)

// Params configures a reversible sketch. The paper's two geometries:
//
//	48-bit keys ({SIP,Dport}, {DIP,Dport}): 6 stages × 2^12 buckets,
//	  4 words × 12 bits hashed to 4 chunks × 3 bits
//	64-bit keys ({SIP,DIP}): 6 stages × 2^16 buckets,
//	  4 words × 16 bits hashed to 4 chunks × 4 bits
type Params struct {
	KeyBits int // total key width (≤64)
	Words   int // q, number of words the key splits into
	Stages  int // H, independent hash tables
	Buckets int // K, counters per stage; power of two; log2 divisible by Words
}

// Params48 returns the paper's geometry for 48-bit keys.
func Params48() Params { return Params{KeyBits: 48, Words: 4, Stages: 6, Buckets: 1 << 12} }

// Params64 returns the paper's geometry for 64-bit keys.
func Params64() Params { return Params{KeyBits: 64, Words: 4, Stages: 6, Buckets: 1 << 16} }

// Validate reports whether the parameters describe a buildable sketch.
func (p Params) Validate() error {
	if p.KeyBits < 1 || p.KeyBits > 64 {
		return fmt.Errorf("revsketch: key width %d out of range [1,64]", p.KeyBits)
	}
	if p.Words < 1 {
		return fmt.Errorf("revsketch: words %d < 1", p.Words)
	}
	if p.Stages < 1 || p.Stages > 15 {
		return fmt.Errorf("revsketch: stages %d out of [1,15]", p.Stages)
	}
	if !sketch.IsPowerOfTwo(p.Buckets) || p.Buckets < 2 {
		return fmt.Errorf("revsketch: buckets %d must be a power of two ≥ 2", p.Buckets)
	}
	if p.KeyBits%p.Words != 0 {
		return fmt.Errorf("revsketch: key width %d not divisible by %d words", p.KeyBits, p.Words)
	}
	if sketch.Log2(p.Buckets)%p.Words != 0 {
		return fmt.Errorf("revsketch: log2(buckets)=%d not divisible by %d words",
			sketch.Log2(p.Buckets), p.Words)
	}
	if p.KeyBits/p.Words > 20 {
		return fmt.Errorf("revsketch: word width %d too large for tabulation (max 20)",
			p.KeyBits/p.Words)
	}
	if p.KeyBits/p.Words < sketch.Log2(p.Buckets)/p.Words {
		return fmt.Errorf("revsketch: chunk wider than word")
	}
	return nil
}

func (p Params) wordBits() int  { return p.KeyBits / p.Words }
func (p Params) chunkBits() int { return sketch.Log2(p.Buckets) / p.Words }

// Sketch is a reversible sketch. It is not safe for concurrent use; the
// HiFIND pipeline owns one per monitored key type and serializes access.
type Sketch struct {
	sketch.Table // H rows of K counters and their total
	params       Params
	seed         uint64
	mangler      sketch.Mangler
	// wordTab[stage][word][w] is the chunk the w-th word value hashes to.
	wordTab [][][]uint8
	scratch []float64 // per-stage estimates, reused across Estimate calls
	// revBits[stage][word][chunk] is the bitset of word values hashing to
	// chunk (bit w set ⇔ wordTab[stage][word][w] == chunk); built lazily
	// on first inference. Bitsets let the reverse search test candidate
	// words 64 at a time.
	revBits [][][][]uint64
	// run is the reverse search's reusable state, built like revBits on
	// first inference and reset by every call.
	run *inferenceRun
}

// New builds an empty reversible sketch. Equal params and seed ⇒ identical
// hashing ⇒ combinable (the multi-router aggregation requirement).
// Construction allocates by design and runs at setup, off the
// per-packet path.
//
//hifind:cold
func New(params Params, seed uint64) (*Sketch, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	state := seed
	m, err := sketch.NewMangler(params.KeyBits, &state)
	if err != nil {
		return nil, fmt.Errorf("revsketch: %w", err)
	}
	s := &Sketch{
		Table:   sketch.NewTable(params.Stages, params.Buckets),
		params:  params,
		seed:    seed,
		mangler: m,
		wordTab: make([][][]uint8, params.Stages),
		scratch: make([]float64, params.Stages),
	}
	wordSpace := 1 << uint(params.wordBits())
	chunkSpace := 1 << uint(params.chunkBits())
	for j := 0; j < params.Stages; j++ {
		s.wordTab[j] = make([][]uint8, params.Words)
		for i := 0; i < params.Words; i++ {
			poly := sketch.NewPoly4(&state)
			tab := make([]uint8, wordSpace)
			for w := 0; w < wordSpace; w++ {
				tab[w] = uint8(poly.HashRange(uint64(w), chunkSpace))
			}
			s.wordTab[j][i] = tab
		}
	}
	return s, nil
}

// Sibling returns an empty sketch that hashes exactly as s does. It
// shares s's mangler, word tables, reverse tables and search run and
// owns only its counters, so a family of siblings costs one table set
// plus one counter array each. The shared run serves the siblings'
// searches in turn: LastInference on any of them reports the family's
// most recent search.
//
//hifind:cold
func (s *Sketch) Sibling() *Sketch {
	return &Sketch{
		Table:   sketch.NewTable(s.params.Stages, s.params.Buckets),
		params:  s.params,
		seed:    s.seed,
		mangler: s.mangler,
		wordTab: s.wordTab,
		revBits: s.reverseTables(),
		run:     s.searchRun(),
		scratch: make([]float64, s.params.Stages),
	}
}

// Params returns the sketch geometry.
func (s *Sketch) Params() Params { return s.params }

// splitWords decomposes a mangled key into its q words, least significant
// word first.
func (s *Sketch) splitWords(mangled uint64) [8]uint32 {
	var words [8]uint32
	wb := uint(s.params.wordBits())
	mask := uint64(1)<<wb - 1
	for i := 0; i < s.params.Words; i++ {
		words[i] = uint32(mangled >> (uint(i) * wb) & mask)
	}
	return words
}

// joinWords is the inverse of splitWords.
func (s *Sketch) joinWords(words []uint32) uint64 {
	wb := uint(s.params.wordBits())
	var key uint64
	for i, w := range words {
		key |= uint64(w) << (uint(i) * wb)
	}
	return key
}

// bucketIndex computes the modular-hash bucket of a mangled key in one
// stage: the concatenation of per-word chunks.
func (s *Sketch) bucketIndex(stage int, words [8]uint32) int {
	cb := uint(s.params.chunkBits())
	var idx int
	for i := 0; i < s.params.Words; i++ {
		idx |= int(s.wordTab[stage][i][words[i]]) << (uint(i) * cb)
	}
	return idx
}

// Update adds v to the key's bucket in every stage (UPDATE). One counter
// write per stage — the per-packet memory-access budget of paper §5.5.2.
func (s *Sketch) Update(key uint64, v int32) {
	words := s.splitWords(s.mangler.Mangle(key))
	for j := 0; j < s.params.Stages; j++ {
		s.Counts[j][s.bucketIndex(j, words)] += v
	}
	s.Sum += int64(v)
}

// Plan caches the per-stage bucket indices of one key: the mangling,
// word split and per-word tabulation lookups of an Update, done once
// and replayable by UpdateAt. Sized for the sketch that created it;
// holds no counters, so reuse across calls is free and allocation-free.
type Plan struct {
	idx []uint32
}

// NewPlan returns a reusable bucket plan sized for this sketch.
func (s *Sketch) NewPlan() *Plan {
	return &Plan{idx: make([]uint32, s.params.Stages)}
}

// FillPlan mangles the key, splits it into words and caches the
// modular-hash bucket of every stage — exactly the indices Update
// writes through.
func (s *Sketch) FillPlan(key uint64, p *Plan) {
	words := s.splitWords(s.mangler.Mangle(key))
	for j := 0; j < s.params.Stages; j++ {
		p.idx[j] = uint32(s.bucketIndex(j, words))
	}
}

// UpdateAt adds v to the planned bucket of every stage — UPDATE with
// the hashing already paid for.
func (s *Sketch) UpdateAt(p *Plan, v int32) {
	for j, ix := range p.idx {
		s.Counts[j][ix] += v
	}
	s.Sum += int64(v)
}

// Estimate reconstructs the key's value with the k-ary mean-corrected
// median estimator (ESTIMATE).
func (s *Sketch) Estimate(key uint64) float64 {
	words := s.splitWords(s.mangler.Mangle(key))
	k := float64(s.params.Buckets)
	est := s.scratch
	for j := 0; j < s.params.Stages; j++ {
		c := float64(s.Counts[j][s.bucketIndex(j, words)])
		est[j] = (c - float64(s.Sum)/k) / (1 - 1/k)
	}
	return sketch.MedianInPlace(est)
}

const sketchMagic = uint32(0x48695253) // "HiRS"

// MarshalBinary serializes the counters under magic "HiRS" with
// geometry words key bits, words, stages and buckets.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	p := s.params
	return s.MarshalBlock(sketchMagic, s.seed,
		uint32(p.KeyBits), uint32(p.Words), uint32(p.Stages), uint32(p.Buckets)), nil
}

// AddBinary adds a MarshalBinary encoding into s (COMBINE with unit
// coefficients, read straight from the wire). The encoding must carry
// s's magic, geometry and seed at exactly its length; otherwise
// AddBinary returns an error and s is unchanged. With apply false it
// only validates. The word tables are never rebuilt: equal params and
// seed already mean identical hashing.
func (s *Sketch) AddBinary(data []byte, apply bool) error {
	p := s.params
	return s.AddBlock(data, apply, sketchMagic, s.seed,
		uint32(p.KeyBits), uint32(p.Words), uint32(p.Stages), uint32(p.Buckets))
}
