package revsketch

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"github.com/hifind/hifind/internal/sketch"
)

// KeyEstimate is one key recovered by INFERENCE with its estimated value.
type KeyEstimate struct {
	Key      uint64
	Estimate float64
}

// InferenceOptions tunes the reverse-hashing search. The zero value asks
// for the defaults documented on each field.
type InferenceOptions struct {
	// Quorum is the number of stages in which a key's bucket must be
	// heavy for the key to be output (H−r in the paper; misses absorb
	// hash collisions that drag one stage's bucket under the threshold).
	// Default: Stages−1.
	Quorum int
	// MaxHeavyBuckets caps heavy buckets per stage; if more exceed the
	// threshold the largest are kept. Bounds worst-case search time under
	// massive attacks. Default: 4096.
	MaxHeavyBuckets int
	// MaxNodes caps DFS node expansions, leaves included, as a safety
	// valve against adversarially dense heavy-bucket sets. It is the cap
	// a spoofed flood reaches: at the paper geometry, the onset of
	// 20 000 spoofed SYN/interval saturates the RS({SIP,DIP}) search,
	// which expands its 4 M nodes (almost all of them leaves) after only
	// 6.5 M of MaxOps's 200 M operations. Default: 4 000 000.
	MaxNodes int
	// MaxOps caps total candidate-enumeration work. When many keys are
	// heavy simultaneously the per-word chunk space saturates and the
	// search degenerates toward exhaustive enumeration — the regime
	// behind the paper's 46.9-second stress detection times. The budget
	// makes inference return its best results so far instead of stalling
	// the pipeline. Units are 64-word bitset operations, which count the
	// work of inner nodes but not of leaves; MaxNodes bounds those. Ops
	// are charged per live stage and node as if every stage were built,
	// also where a stage whose buckets carry every chunk skips its
	// bitset pass. Default: 200 000 000. Raise both for offline forensics
	// on heavily saturated intervals.
	MaxOps int64
	// MaxKeys caps the number of keys returned (largest estimates first).
	// Default: 4096.
	MaxKeys int
	// Verify, when set, is consulted for every candidate key before it is
	// accepted. HiFIND passes its verifier-sketch check here so that
	// modular-hash aliases are rejected *before* MaxKeys truncation —
	// otherwise a storm of aliases could crowd out true keys.
	Verify func(key uint64, estimate float64) bool
}

func (o InferenceOptions) withDefaults(stages int) InferenceOptions {
	if o.Quorum == 0 {
		o.Quorum = stages - 1
	}
	if o.Quorum < 1 {
		o.Quorum = 1
	}
	if o.Quorum > stages {
		o.Quorum = stages
	}
	if o.MaxHeavyBuckets == 0 {
		o.MaxHeavyBuckets = 4096
	}
	if o.MaxNodes == 0 {
		o.MaxNodes = 4_000_000
	}
	if o.MaxOps == 0 {
		o.MaxOps = 200_000_000
	}
	if o.MaxKeys == 0 {
		o.MaxKeys = 4096
	}
	return o
}

// InferenceStats is the work one Inference call did; LastInference
// reports it after the call returns.
type InferenceStats struct {
	Nodes  int   // DFS nodes expanded, leaves included (MaxNodes units)
	Leaves int   // complete word prefixes emitted as candidate keys
	Ops    int64 // 64-word bitset operations (MaxOps units)
	// BudgetHit reports that MaxNodes or MaxOps stopped the search
	// before it had explored every viable prefix.
	BudgetHit bool
}

// Inference performs the reverse-hashing INFERENCE of paper Table 2 on an
// external value grid sharing the sketch's geometry — in HiFIND the EWMA
// forecast-error grid — returning every key whose estimated value is at
// least threshold, largest first. The returned slice belongs to the
// caller: later calls never write into it.
//
// Algorithm: per stage, collect the heavy buckets (value ≥ threshold).
// Because bucket indices are concatenations of per-word chunks, candidate
// keys are grown word by word; a partial candidate keeps, per stage, the
// subset of heavy buckets whose chunk prefix matches the per-stage hashes
// of the words chosen so far. A branch dies when fewer than Quorum stages
// retain compatible buckets. Recovered keys are un-mangled and their values
// re-estimated from the grid; keys whose estimate falls under the threshold
// (false candidates from chunk collisions) are dropped — the same role the
// paper's verifier sketches play, which internal/core layers on top.
// Candidate words are explored best first, which decides what a search
// cut short by a budget keeps; a node whose leaves no cap can cut emits
// them in word order instead, as the result does not depend on it.
//
// The search state lives in one run per sketch, built on first use and
// reset by every call, so a warm sketch searches in fixed memory however
// many nodes the budget lets it expand.
func (s *Sketch) Inference(g sketch.Grid, threshold float64, opts InferenceOptions) ([]KeyEstimate, error) {
	if g.Stages() != s.params.Stages || g.Buckets() != s.params.Buckets {
		return nil, fmt.Errorf("revsketch: inference grid %dx%d does not match sketch %dx%d",
			g.Stages(), g.Buckets(), s.params.Stages, s.params.Buckets)
	}
	if threshold <= 0 {
		return nil, fmt.Errorf("revsketch: inference threshold %v must be positive", threshold)
	}
	opts = opts.withDefaults(s.params.Stages)
	s.reverseTables()
	r := s.searchRun()
	r.s = s
	r.reset(g, threshold, opts)
	r.dfs(0, r.heavy)
	r.stats.BudgetHit = r.stats.Nodes >= opts.MaxNodes || r.stats.Ops >= opts.MaxOps

	// Keys are emitted once each, so estimate descending, key ascending
	// is a total order.
	slices.SortFunc(r.out, func(a, b KeyEstimate) int {
		switch {
		case a.Estimate > b.Estimate:
			return -1
		case a.Estimate < b.Estimate:
			return 1
		}
		return cmp.Compare(a.Key, b.Key)
	})
	var keys []KeyEstimate
	if n := min(len(r.out), opts.MaxKeys); n > 0 {
		keys = slices.Clone(r.out[:n])
	}
	// Drop the call's grid and Verify closure so the idle run pins
	// neither across intervals.
	r.grid, r.opts.Verify = nil, nil
	return keys, nil
}

// LastInference reports the work of the most recent Inference call on
// the sketch or, since siblings share one run, on any of its siblings;
// the zero value before the first.
func (s *Sketch) LastInference() InferenceStats {
	if s.run == nil {
		return InferenceStats{}
	}
	return s.run.stats
}

// InferenceCounts runs Inference directly over the sketch's own counters,
// for callers that detect on raw per-interval values instead of forecast
// errors: the auxiliary detectors and tests. The counters are copied
// into a grid the search run keeps, so a warm sketch allocates only
// the returned keys.
func (s *Sketch) InferenceCounts(threshold float64, opts InferenceOptions) ([]KeyEstimate, error) {
	r := s.searchRun()
	if r.counts == nil {
		r.counts = sketch.NewGrid(s.params.Stages, s.params.Buckets)
	}
	r.counts.Zero()
	if err := r.counts.AddCounts(s.Counts, 1); err != nil {
		return nil, err
	}
	return s.Inference(r.counts, threshold, opts)
}

// searchRun returns the sketch's search run, building it on first use.
func (s *Sketch) searchRun() *inferenceRun {
	if s.run == nil {
		s.run = newInferenceRun(s)
	}
	return s.run
}

// heavyBuckets appends to idx the indices of buckets with value ≥
// threshold, keeping only the cap largest when more qualify. Indices are
// distinct, so value descending, index ascending is a total order: which
// of several tied buckets survives the cut does not depend on the sort
// algorithm.
func heavyBuckets(idx []uint32, row []float64, threshold float64, cap int) []uint32 {
	for i, v := range row {
		if v >= threshold {
			idx = append(idx, uint32(i))
		}
	}
	if len(idx) > cap {
		slices.SortFunc(idx, func(a, b uint32) int {
			switch {
			case row[a] > row[b]:
				return -1
			case row[a] < row[b]:
				return 1
			}
			return cmp.Compare(a, b)
		})
		idx = idx[:cap]
		slices.Sort(idx)
	}
	return idx
}

// reverseTables returns the chunk→word bitsets, building them on first
// use.
func (s *Sketch) reverseTables() [][][][]uint64 {
	if s.revBits != nil {
		return s.revBits
	}
	chunkSpace := 1 << uint(s.params.chunkBits())
	wordSpace := 1 << uint(s.params.wordBits())
	words64 := (wordSpace + 63) / 64
	s.revBits = make([][][][]uint64, s.params.Stages)
	for j := range s.revBits {
		s.revBits[j] = make([][][]uint64, s.params.Words)
		for i := range s.revBits[j] {
			tab := s.wordTab[j][i]
			sets := make([][]uint64, chunkSpace)
			backing := make([]uint64, chunkSpace*words64)
			for c := range sets {
				sets[c] = backing[c*words64 : (c+1)*words64 : (c+1)*words64]
			}
			for w := 0; w < wordSpace; w++ {
				sets[tab[w]][w>>6] |= 1 << (uint(w) & 63)
			}
			s.revBits[j][i] = sets
		}
	}
	return s.revBits
}

// scoredWord is a candidate next word with its best-first rank.
type scoredWord struct {
	w     uint32
	score float64
}

// inferenceRun holds the state of a sketch's reverse-hashing search. One
// run serves every Inference call on its sketch and its siblings: each
// call rebinds it to the searched sketch and the call's grid, and its
// buffers grow to the largest search served and are then kept, so the
// search itself never allocates once warm.
type inferenceRun struct {
	s      *Sketch
	grid   sketch.Grid
	counts sketch.Grid // InferenceCounts' copy of the counters
	thresh float64
	opts   InferenceOptions
	stats  InferenceStats

	heavy [][]uint32 // per-stage heavy buckets: the root's compat sets
	// stageBuf holds, per stage, the bitset of words allowed at the
	// current position (OR of the allowed chunks' bitsets); planes are the
	// carry-save counter bit-planes used to find words allowed in at least
	// Quorum stages, 64 candidates at a time.
	stageBuf [][]uint64
	planes   [4][]uint64
	prefix   []uint32 // prefix[d] is the word chosen at depth d
	// Per-depth arenas. A node at depth d ranks its candidate words in
	// cands[d] and hands each child the narrowed compat sets next[d],
	// whose per-stage slices live in kept[d][j]. Siblings at one depth
	// overwrite them after the previous child returns, and a child
	// writes only its own depth's, so no aliasing survives.
	cands [][]scoredWord
	next  [][][]uint32
	kept  [][][]uint32
	out   []KeyEstimate

	// Leaf estimation. Estimate's per-stage estimate, read from the grid, is
	// (c − total/K) / (1 − 1/K); mean holds total/K per stage and denom
	// 1 − 1/K, so a leaf does the same arithmetic. Each leaf-parent
	// caches in base the bucket bits its prefix words select in every
	// stage and in prefixKey their share of the mangled key, so a leaf
	// reads its buckets with one lookup per stage in leafTab, the last
	// word's tables, and shifts the chunk and the word into place by
	// chunkShift and wordShift.
	mean       []float64
	denom      float64
	est        []float64 // per-stage leaf estimates
	base       []uint32
	prefixKey  uint64
	leafTab    [][]uint8
	chunkShift uint
	wordShift  uint
}

func newInferenceRun(s *Sketch) *inferenceRun {
	p := s.params
	words64 := (1<<uint(p.wordBits()) + 63) / 64
	r := &inferenceRun{
		s:        s,
		heavy:    make([][]uint32, p.Stages),
		stageBuf: make([][]uint64, p.Stages),
		prefix:   make([]uint32, p.Words),
		cands:    make([][]scoredWord, p.Words),
		next:     make([][][]uint32, p.Words),
		kept:     make([][][]uint32, p.Words),
		mean:     make([]float64, p.Stages),
		est:      make([]float64, p.Stages),
		base:     make([]uint32, p.Stages),
		leafTab:  make([][]uint8, p.Stages),
	}
	for j := range r.stageBuf {
		r.stageBuf[j] = make([]uint64, words64)
	}
	for i := range r.planes {
		r.planes[i] = make([]uint64, words64)
	}
	for d := range r.next {
		r.next[d] = make([][]uint32, p.Stages)
		r.kept[d] = make([][]uint32, p.Stages)
	}
	return r
}

// reset binds the run to one call: its grid, threshold and options, the
// grid's per-stage means and heavy buckets, and kept arenas large enough
// for any narrowing of those buckets.
func (r *inferenceRun) reset(g sketch.Grid, threshold float64, opts InferenceOptions) {
	r.grid, r.thresh, r.opts = g, threshold, opts
	r.stats = InferenceStats{}
	r.out = r.out[:0]
	p := r.s.params
	k := float64(p.Buckets)
	r.denom = 1 - 1/k
	r.chunkShift = uint((p.Words - 1) * p.chunkBits())
	r.wordShift = uint((p.Words - 1) * p.wordBits())
	for j := range r.heavy {
		r.mean[j] = g.Sum(j) / k
		r.leafTab[j] = r.s.wordTab[j][p.Words-1]
		r.heavy[j] = heavyBuckets(r.heavy[j][:0], g[j], threshold, opts.MaxHeavyBuckets)
		for d := range r.kept {
			r.kept[d][j] = reserve(r.kept[d][j][:0], len(r.heavy[j]))
		}
	}
}

// reserve returns buf with room for at least n more elements, growing it
// only when short. The run's arenas grow to the largest search the sketch
// has served and are kept from then on, so growth is rare and amortized,
// off the per-node path the hot-path rule guards.
//
//hifind:cold
func reserve[T any](buf []T, n int) []T {
	return slices.Grow(buf, n)
}

// dfs extends the current word prefix by every viable next word.
// compat[j] holds the heavy buckets of stage j whose chunk prefix matches
// the chosen words; an empty slice means the stage is dead on this branch.
//
//hifind:hot
func (r *inferenceRun) dfs(depth int, compat [][]uint32) {
	if r.stats.Nodes >= r.opts.MaxNodes || r.stats.Ops >= r.opts.MaxOps || len(r.out) >= r.opts.MaxKeys*4 {
		return
	}
	r.stats.Nodes++
	p := r.s.params
	if depth == p.Words {
		r.emit(r.prefix[depth-1])
		return
	}
	cb := uint(p.chunkBits())
	shift := uint(depth) * cb
	chunkMask := uint32(1)<<cb - 1

	// Build, per live stage, the bitset of words whose chunk at this
	// position matches some compatible bucket; then keep words allowed in
	// at least Quorum stages using a bit-parallel carry-save counter.
	// chunkVal tracks, per stage and chunk, the largest grid value among
	// the compatible buckets carrying that chunk — the best-first search
	// heuristic below ranks candidate words by it.
	words64 := len(r.planes[0])
	var stageSets [16][]uint64 // stages ≤ 8 in practice; 16 is headroom
	var stageIdx [16]int
	var chunkVal [16][16]float64
	nStages, nFull := 0, 0
	var chunkSeen [16]bool // chunkBits ≤ 4 for all supported geometries
	var distinct [16]uint32
	for j := 0; j < p.Stages; j++ {
		if len(compat[j]) == 0 {
			continue
		}
		chunkSeen = [16]bool{}
		nDistinct := 0
		for _, b := range compat[j] {
			c := b >> shift & chunkMask
			if v := r.grid[j][b]; v > chunkVal[nStages][c] || !chunkSeen[c] {
				chunkVal[nStages][c] = v
			}
			if !chunkSeen[c] {
				chunkSeen[c] = true
				distinct[nDistinct] = c
				nDistinct++
			}
		}
		stageIdx[nStages] = j
		switch {
		case nDistinct == int(chunkMask)+1:
			// Every chunk is carried, so the stage allows every word:
			// it adds one to every count, which lowering the quorum by
			// one does without an OR-build or a carry-save pass. Ops
			// are charged as if the stage had been built, so MaxOps
			// cuts the search where it always has.
			stageSets[nStages] = nil
			nFull++
			r.stats.Ops += int64(nDistinct * words64)
		case nDistinct == 1:
			// Single chunk: use the precomputed bitset directly.
			stageSets[nStages] = r.s.revBits[j][depth][distinct[0]]
		default:
			buf := r.stageBuf[nStages]
			first := r.s.revBits[j][depth][distinct[0]]
			copy(buf, first)
			for _, c := range distinct[1:nDistinct] {
				set := r.s.revBits[j][depth][c]
				for k := range buf {
					buf[k] |= set[k]
				}
			}
			r.stats.Ops += int64(nDistinct * words64)
			stageSets[nStages] = buf
		}
		nStages++
	}
	// Carry-save addition of the stage bitsets: planes hold the per-word
	// count in binary (plane i = bit i of the count).
	for i := range r.planes {
		clear(r.planes[i])
	}
	for _, set := range stageSets[:nStages] {
		if set == nil {
			continue
		}
		p0, p1, p2, p3 := r.planes[0], r.planes[1], r.planes[2], r.planes[3]
		for k := 0; k < words64; k++ {
			x := set[k]
			c0 := p0[k] & x
			p0[k] ^= x
			c1 := p1[k] & c0
			p1[k] ^= c0
			c2 := p2[k] & c1
			p2[k] ^= c1
			p3[k] |= c2
		}
	}
	r.stats.Ops += int64(nStages * words64)
	// Mask of words with count ≥ Quorum (counts fit in 4 bits; stages ≤
	// 15), full stages folded in; stage 0's set is consumed, so its
	// buffer takes the result.
	viable := r.stageBuf[0]
	if q := r.opts.Quorum - nFull; q > 0 {
		quorumMask(r.planes, q, viable)
	} else {
		allWords(viable, 1<<uint(p.wordBits()))
	}

	nCands := 0
	for _, v := range viable {
		nCands += bits.OnesCount64(v)
	}
	// A leaf-parent whose leaves fit the node budget, with Ops left,
	// emits them in word order: no cap but the output cap can bind in
	// it, and emitLeaves undoes its pass when that one does. Ranking
	// only decides which leaves a binding cap keeps.
	if depth == p.Words-1 {
		r.leafPrefix(depth)
		if nCands <= r.opts.MaxNodes-r.stats.Nodes && r.stats.Ops < r.opts.MaxOps && r.emitLeaves(viable) {
			return
		}
	}
	cands := r.cands[depth]
	if cap(cands) < nCands {
		cands = reserve(cands[:0], nCands)
		r.cands[depth] = cands
	}
	cands = cands[:nCands]
	i := 0
	for k := 0; k < words64; k++ {
		bitsW := viable[k]
		for bitsW != 0 {
			w := uint32(k<<6) + uint32(bits.TrailingZeros64(bitsW))
			bitsW &= bitsW - 1
			// Best-first heuristic: sum, over live stages, the strongest
			// compatible bucket this word keeps alive. True keys keep
			// their own heavy buckets alive in (almost) every stage, so
			// they outrank chance alignments and are explored first —
			// which is what makes budget-truncated searches return the
			// top anomalies rather than an arbitrary prefix (the paper's
			// top-100 stress mode).
			var sc float64
			for si := 0; si < nStages; si++ {
				sc += chunkVal[si][r.s.wordTab[stageIdx[si]][depth][w]&uint8(chunkMask)]
			}
			cands[i] = scoredWord{w: w, score: sc}
			i++
		}
	}
	// Words are distinct, so score descending, word ascending is a total
	// order: the ranking does not depend on the sort algorithm.
	slices.SortFunc(cands, func(a, b scoredWord) int {
		switch {
		case a.score > b.score:
			return -1
		case a.score < b.score:
			return 1
		}
		return cmp.Compare(a.w, b.w)
	})
	// Every candidate keeps at least Quorum stages alive: quorumMask
	// kept exactly the words whose chunk some compatible bucket carries
	// in that many live stages. Leaves read only the prefix, so the last
	// word needs no narrowing.
	next := r.next[depth]
	if depth == p.Words-1 {
		next = nil
	}
	for _, cand := range cands {
		w := cand.w
		// Narrow each stage's compatible buckets to those matching w's
		// chunk, into this depth's kept arena (reset sized it for the
		// stage's whole heavy list, which compat[j] is a subset of).
		for j := range next {
			next[j] = nil
			if len(compat[j]) == 0 {
				continue
			}
			want := uint32(r.s.wordTab[j][depth][w])
			kept := r.kept[depth][j][:len(compat[j])]
			n := 0
			for _, b := range compat[j] {
				if b>>shift&chunkMask == want {
					kept[n] = b
					n++
				}
			}
			if n > 0 {
				next[j] = kept[:n]
			}
		}
		r.prefix[depth] = w
		r.dfs(depth+1, next)
		if r.stats.Nodes >= r.opts.MaxNodes || r.stats.Ops >= r.opts.MaxOps {
			return
		}
	}
}

// allWords sets in out the bit of every word of a wordSpace-word space.
//
//hifind:hot
func allWords(out []uint64, wordSpace int) {
	for k := range out {
		out[k] = ^uint64(0)
	}
	if rem := uint(wordSpace) & 63; rem != 0 {
		out[len(out)-1] = 1<<rem - 1
	}
}

// leafPrefix caches what the leaves below a leaf-parent at depth last
// share: per stage, the bucket bits of the prefix words, and the
// prefix's share of the mangled key.
//
//hifind:hot
func (r *inferenceRun) leafPrefix(last int) {
	cb := uint(r.s.params.chunkBits())
	wb := uint(r.s.params.wordBits())
	r.prefixKey = 0
	for i, w := range r.prefix[:last] {
		r.prefixKey |= uint64(w) << (uint(i) * wb)
	}
	for j := range r.base {
		var b uint32
		for i, w := range r.prefix[:last] {
			b |= uint32(r.s.wordTab[j][i][w]) << (uint(i) * cb)
		}
		r.base[j] = b
	}
}

// emitLeaves emits the leaves of a leaf-parent in word order, viable
// holding their last words. The caller has checked that they fit the
// node budget and that Ops are left, which leaves never spend, so only
// the output cap can bind. Once the pass fills it, the pass is undone
// and emitLeaves reports false: which leaves a ranked pass would have
// emitted before the cap stopped it depends on the ranking, so the
// caller ranks them as in any other search.
//
//hifind:hot
func (r *inferenceRun) emitLeaves(viable []uint64) bool {
	nodes, leaves, n := r.stats.Nodes, r.stats.Leaves, len(r.out)
	for k, bw := range viable {
		for bw != 0 {
			w := uint32(k<<6) + uint32(bits.TrailingZeros64(bw))
			bw &= bw - 1
			r.stats.Nodes++
			r.emit(w)
			if len(r.out) >= r.opts.MaxKeys*4 {
				r.stats.Nodes, r.stats.Leaves, r.out = nodes, leaves, r.out[:n]
				return false
			}
		}
	}
	return true
}

// emit completes the prefix with last word w, estimates the key's value
// from the grid, and records the key if it clears the threshold and
// Verify. The estimate is Estimate's k-ary median read from the grid,
// bit for bit: the same buckets and arithmetic, with the prefix's share cached by leafPrefix.
// Every leaf is a distinct prefix (siblings differ in their word, and
// the search never revisits a node), and joining the words and
// un-mangling are both injective, so each key is emitted at most once.
//
//hifind:hot
func (r *inferenceRun) emit(w uint32) {
	r.stats.Leaves++
	for j, tab := range r.leafTab {
		c := r.grid[j][r.base[j]|uint32(tab[w])<<r.chunkShift]
		r.est[j] = (c - r.mean[j]) / r.denom
	}
	est := sketch.MedianInPlace(r.est)
	if est < r.thresh {
		return
	}
	key := r.s.mangler.Unmangle(r.prefixKey | uint64(w)<<r.wordShift)
	if r.opts.Verify != nil && !r.opts.Verify(key, est) {
		return
	}
	n := len(r.out)
	if n == cap(r.out) {
		r.out = reserve(r.out, 1)
	}
	r.out = r.out[:n+1]
	r.out[n] = KeyEstimate{Key: key, Estimate: est}
}

// quorumMask writes into out the mask of bit positions whose 4-bit
// carry-save count (planes[3..0]) is at least quorum. Counts reach the
// number of live stages, which Params caps well below 16.
//
//hifind:hot
func quorumMask(planes [4][]uint64, quorum int, out []uint64) {
	p0, p1, p2, p3 := planes[0], planes[1], planes[2], planes[3]
	for k := range out {
		b0, b1, b2, b3 := p0[k], p1[k], p2[k], p3[k]
		var m uint64
		// ge(q) over the 4-bit counter, unrolled per quorum value.
		switch {
		case quorum <= 1:
			m = b0 | b1 | b2 | b3
		case quorum == 2:
			m = b1 | b2 | b3
		case quorum == 3:
			m = (b1 & b0) | b2 | b3
		case quorum == 4:
			m = b2 | b3
		case quorum == 5:
			m = (b2 & (b1 | b0)) | b3
		case quorum == 6:
			m = (b2 & b1) | b3
		case quorum == 7:
			m = (b2 & b1 & b0) | b3
		default: // quorum ≥ 8
			m = b3
			if quorum > 8 {
				// count = 8 + lower bits; need lower ≥ quorum−8.
				switch quorum - 8 {
				case 1:
					m &= b0 | b1 | b2
				case 2:
					m &= b1 | b2
				case 3:
					m &= (b1 & b0) | b2
				case 4:
					m &= b2
				case 5:
					m &= b2 & (b1 | b0)
				case 6:
					m &= b2 & b1
				case 7:
					m &= b2 & b1 & b0
				default:
					m = 0
				}
			}
		}
		out[k] = m
	}
}
