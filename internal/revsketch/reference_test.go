package revsketch

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"github.com/hifind/hifind/internal/sketch"
)

// The reference search is Inference's kernel as it was before leaves
// were estimated from their prefix, emitted unranked where no cap binds
// and full stages were folded into the quorum: every node ranks its
// candidate words, and every leaf re-mangles its key for estimateGrid.
// TestInferenceMatchesReference and FuzzInference hold Inference to it:
// the same keys with bit-identical estimates and the same
// InferenceStats, so the cheaper kernel walks the same traversal.

// referenceInference runs the reference search. It also reports how
// many keys the search accepted before the MaxKeys cut.
func referenceInference(s *Sketch, g sketch.Grid, threshold float64, opts InferenceOptions) ([]KeyEstimate, InferenceStats, int) {
	opts = opts.withDefaults(s.params.Stages)
	s.reverseTables()
	r := newRefRun(s)
	r.reset(g, threshold, opts)
	r.dfs(0, r.heavy)
	r.stats.BudgetHit = r.stats.Nodes >= opts.MaxNodes || r.stats.Ops >= opts.MaxOps
	slices.SortFunc(r.out, func(a, b KeyEstimate) int {
		switch {
		case a.Estimate > b.Estimate:
			return -1
		case a.Estimate < b.Estimate:
			return 1
		}
		return cmp.Compare(a.Key, b.Key)
	})
	return slices.Clone(r.out[:min(len(r.out), opts.MaxKeys)]), r.stats, len(r.out)
}

// refRun is the reference search's state: the inference run as it was
// before leaves were estimated from their prefix, emitted unranked and
// folded into the quorum.
type refRun struct {
	s      *Sketch
	grid   sketch.Grid
	thresh float64
	opts   InferenceOptions
	stats  InferenceStats

	totals []float64  // per-stage grid sums for estimateGrid
	heavy  [][]uint32 // per-stage heavy buckets: the root's compat sets
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
}

func newRefRun(s *Sketch) *refRun {
	p := s.params
	words64 := (1<<uint(p.wordBits()) + 63) / 64
	r := &refRun{
		s:        s,
		totals:   make([]float64, p.Stages),
		heavy:    make([][]uint32, p.Stages),
		stageBuf: make([][]uint64, p.Stages),
		prefix:   make([]uint32, p.Words),
		cands:    make([][]scoredWord, p.Words),
		next:     make([][][]uint32, p.Words),
		kept:     make([][][]uint32, p.Words),
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
// grid's per-stage totals and heavy buckets, and kept arenas large enough
// for any narrowing of those buckets.
func (r *refRun) reset(g sketch.Grid, threshold float64, opts InferenceOptions) {
	r.grid, r.thresh, r.opts = g, threshold, opts
	r.stats = InferenceStats{}
	r.out = r.out[:0]
	for j := range r.heavy {
		r.totals[j] = g.Sum(j)
		r.heavy[j] = heavyBuckets(r.heavy[j][:0], g[j], threshold, opts.MaxHeavyBuckets)
		for d := range r.kept {
			r.kept[d][j] = reserve(r.kept[d][j][:0], len(r.heavy[j]))
		}
	}
}

// dfs extends the current word prefix by every viable next word.
// compat[j] holds the heavy buckets of stage j whose chunk prefix matches
// the chosen words; an empty slice means the stage is dead on this branch.
func (r *refRun) dfs(depth int, compat [][]uint32) {
	if r.stats.Nodes >= r.opts.MaxNodes || r.stats.Ops >= r.opts.MaxOps || len(r.out) >= r.opts.MaxKeys*4 {
		return
	}
	r.stats.Nodes++
	p := r.s.params
	if depth == p.Words {
		r.emit()
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
	nStages := 0
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
		if nDistinct == 1 {
			// Single chunk: use the precomputed bitset directly.
			stageSets[nStages] = r.s.revBits[j][depth][distinct[0]]
		} else {
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
	for si := 0; si < nStages; si++ {
		set := stageSets[si]
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
	// Mask of words with count ≥ Quorum (counts fit in 4 bits; stages ≤ 15).
	viable := r.stageBuf[0] // reuse as output; stage 0's set is consumed
	quorumMask(r.planes, r.opts.Quorum, viable)

	nCands := 0
	for _, v := range viable {
		nCands += bits.OnesCount64(v)
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

// estimateGrid is the k-ary estimator of Estimate applied to an external
// grid that shares s's geometry, such as a forecast-error grid, given
// each stage's total (Grid.Sum).
func estimateGrid(s *Sketch, g sketch.Grid, totals []float64, key uint64) float64 {
	words := s.splitWords(s.mangler.Mangle(key))
	k := float64(s.params.Buckets)
	est := s.scratch
	for j := 0; j < s.params.Stages; j++ {
		c := g[j][s.bucketIndex(j, words)]
		est[j] = (c - totals[j]/k) / (1 - 1/k)
	}
	return sketch.MedianInPlace(est)
}

// emit reconstructs the key from the completed word prefix, re-estimates
// its value from the grid, and records it if it clears the threshold.
// Every leaf is a distinct prefix (siblings differ in their word, and the
// search never revisits a node), and joining the words and un-mangling
// are both injective, so each key is emitted at most once.
func (r *refRun) emit() {
	r.stats.Leaves++
	key := r.s.mangler.Unmangle(r.s.joinWords(r.prefix))
	est := estimateGrid(r.s, r.grid, r.totals, key)
	if est < r.thresh {
		return
	}
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

// sameSearch fails t unless Inference's result and stats equal the
// reference's, estimates compared bit for bit.
func sameSearch(t *testing.T, got []KeyEstimate, gotStats InferenceStats, want []KeyEstimate, wantStats InferenceStats) {
	t.Helper()
	if gotStats != wantStats {
		t.Errorf("stats %+v, reference %+v", gotStats, wantStats)
	}
	if len(got) != len(want) {
		t.Fatalf("%d keys, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Key != want[i].Key || math.Float64bits(got[i].Estimate) != math.Float64bits(want[i].Estimate) {
			t.Fatalf("key %d: %#x (%v), reference %#x (%v)", i, got[i].Key, got[i].Estimate, want[i].Key, want[i].Estimate)
		}
	}
}

// refCase is one searched grid: a reversible sketch, the grid it
// searches, the threshold, and a verifier sketch with its own grid of
// the same traffic.
type refCase struct {
	name      string
	s         *Sketch
	grid      sketch.Grid
	threshold float64
	ver       *sketch.Sketch
	verGrid   sketch.Grid
}

// newRefCase feeds updates into a reversible sketch and a verifier and
// takes both grids from their counters.
func newRefCase(t *testing.T, name string, p Params, threshold float64, feed func(update func(key uint64, v int32))) refCase {
	t.Helper()
	s, err := New(p, 0x5eed)
	if err != nil {
		t.Fatal(err)
	}
	ver, err := sketch.New(sketch.Params{Stages: p.Stages, Buckets: 1 << 10}, 0xfeed)
	if err != nil {
		t.Fatal(err)
	}
	feed(func(key uint64, v int32) {
		s.Update(key, v)
		ver.Update(key, v)
	})
	c := refCase{name: name, s: s, threshold: threshold, ver: ver,
		grid: sketch.NewGrid(p.Stages, p.Buckets), verGrid: sketch.NewGrid(p.Stages, 1<<10)}
	if err := c.grid.AddCounts(s.Snapshot(), 1); err != nil {
		t.Fatal(err)
	}
	if err := c.verGrid.AddCounts(ver.Snapshot(), 1); err != nil {
		t.Fatal(err)
	}
	return c
}

// refCases builds, for one geometry, a spoofed flood that saturates the
// search (random upper half, fixed lower half, as a flood on one victim
// fixes the DIP of its {SIP,DIP} keys), a few dozen heavy keys over
// background noise, and a tied grid whose every bucket is heavy with
// the same value.
func refCases(t *testing.T, p Params) []refCase {
	half := uint(p.KeyBits / 2)
	keyMask := uint64(math.MaxUint64) >> uint(64-p.KeyBits)
	rng := rand.New(rand.NewSource(int64(p.KeyBits*131 + p.Words*17 + p.Stages)))
	flooded := 80 << uint(sketch.Log2(p.Buckets)/2)
	flood := newRefCase(t, "flood", p, 60, func(update func(uint64, int32)) {
		victim := rng.Uint64() & (1<<half - 1)
		for i := 0; i < flooded; i++ {
			update((rng.Uint64()<<half|victim)&keyMask, 1)
		}
	})
	heavy := newRefCase(t, "heavy", p, 50, func(update func(uint64, int32)) {
		for i := 0; i < 40; i++ {
			update(rng.Uint64()&keyMask, int32(100+i))
		}
		for i := 0; i < 2*p.Buckets; i++ {
			update(rng.Uint64()&keyMask, 1)
		}
	})
	tied := newRefCase(t, "tied", p, 10, func(func(uint64, int32)) {})
	for _, row := range tied.grid {
		for b := range row {
			row[b] = 10
		}
	}
	return []refCase{flood, heavy, tied}
}

// refParams are the geometries the reference runs at: the paper's two
// and small ones with one, two, three and four words (four-bit words
// leave most of the single bitset word outside the word space).
func refParams() []Params {
	return []Params{
		Params64(),
		Params48(),
		{KeyBits: 8, Words: 1, Stages: 4, Buckets: 16},
		{KeyBits: 16, Words: 2, Stages: 3, Buckets: 16},
		{KeyBits: 24, Words: 3, Stages: 5, Buckets: 64},
		{KeyBits: 16, Words: 4, Stages: 5, Buckets: 256},
	}
}

// TestInferenceMatchesReference: on saturated, heavy-key and tied grids
// at six geometries, Inference returns the reference's keys, estimates
// and InferenceStats under each way a search can end early: MaxNodes,
// MaxOps and the 4×MaxKeys output cap each binding part way through, a
// Verify that rejects or accepts everything, and a verifier sketch
// checked with EstimateGridAtLeast against the reference's full median.
// Under the race detector only the small geometries run.
func TestInferenceMatchesReference(t *testing.T) {
	for _, p := range refParams() {
		if raceEnabled && p.KeyBits >= 48 {
			continue
		}
		for _, c := range refCases(t, p) {
			base := InferenceOptions{MaxNodes: 50_000, MaxOps: 20_000_000}
			_, full, accepted := referenceInference(c.s, c.grid, c.threshold, base)
			verTotal := c.verGrid.Sum(0)
			const verFloor = 30
			type variant struct {
				name    string
				opts    InferenceOptions
				refOpts InferenceOptions // when the reference's differ
				binds   bool             // MaxNodes or MaxOps must cut the search
			}
			with := func(edit func(*InferenceOptions)) InferenceOptions {
				o := base
				edit(&o)
				return o
			}
			outCap := func(o *InferenceOptions) { o.MaxKeys = max(1, accepted/8) }
			variants := []variant{
				{name: "base", opts: base},
				{name: "nodes", opts: with(func(o *InferenceOptions) { o.MaxNodes = full.Nodes/2 + 1 }), binds: full.Nodes > 2},
				{name: "ops", opts: with(func(o *InferenceOptions) { o.MaxOps = full.Ops/2 + 1 }), binds: full.Ops > 2},
				{name: "output cap", opts: with(outCap)},
				{name: "reject all", opts: with(func(o *InferenceOptions) {
					o.Verify = func(uint64, float64) bool { return false }
				})},
				{name: "accept all, output cap", opts: with(func(o *InferenceOptions) {
					outCap(o)
					o.Verify = func(uint64, float64) bool { return true }
				})},
				{name: "every third rejected, output cap", opts: with(func(o *InferenceOptions) {
					outCap(o)
					o.Verify = func(key uint64, _ float64) bool { return key%3 != 0 }
				})},
				{name: "verifier",
					opts: with(func(o *InferenceOptions) {
						o.Verify = func(key uint64, _ float64) bool {
							return c.ver.EstimateGridAtLeast(c.verGrid, verTotal, key, verFloor)
						}
					}),
					refOpts: with(func(o *InferenceOptions) {
						o.Verify = func(key uint64, _ float64) bool {
							return c.ver.EstimateGrid(c.verGrid, verTotal, key) >= verFloor
						}
					})},
			}
			if p.KeyBits < 48 {
				// Sweep the output cap: wherever it fills on a node's
				// last leaf in word order, ranking may still stop the
				// node earlier.
				for maxKeys := 1; maxKeys <= 16; maxKeys++ {
					variants = append(variants, variant{name: fmt.Sprintf("MaxKeys %d", maxKeys),
						opts: with(func(o *InferenceOptions) {
							o.MaxKeys = maxKeys
							o.Verify = func(key uint64, _ float64) bool { return key%3 != 0 }
						})})
				}
			}
			for _, v := range variants {
				t.Run(fmt.Sprintf("%d-%d-%d/%s/%s", p.KeyBits, p.Words, p.Stages, c.name, v.name), func(t *testing.T) {
					refOpts := v.opts
					if v.refOpts.Verify != nil {
						refOpts = v.refOpts
					}
					want, wantStats, _ := referenceInference(c.s, c.grid, c.threshold, refOpts)
					if v.binds && !wantStats.BudgetHit {
						t.Fatalf("budget did not bind: %+v", wantStats)
					}
					got, err := c.s.Inference(c.grid, c.threshold, v.opts)
					if err != nil {
						t.Fatal(err)
					}
					sameSearch(t, got, c.s.LastInference(), want, wantStats)
				})
			}
		}
	}
}

// TestHeavyBucketsTieOrder: when tied buckets straddle the
// MaxHeavyBuckets cut, the lowest indices among them survive, whatever
// the sort algorithm does with equal elements.
func TestHeavyBucketsTieOrder(t *testing.T) {
	row := []float64{5, 7, 7, 7, 3, 7, 9}
	if got := heavyBuckets(nil, row, 4, 3); !slices.Equal(got, []uint32{1, 2, 6}) {
		t.Errorf("small row: kept %v, want [1 2 6]", got)
	}
	// Long enough for the sort to leave insertion sort behind.
	rng := rand.New(rand.NewSource(9))
	row = make([]float64, 1000)
	for i := range row {
		row[i] = float64(1 + rng.Intn(3))
	}
	const cap = 300
	var want []uint32
	for _, v := range []float64{3, 2} {
		for i, x := range row {
			if x >= v && x < v+1 && len(want) < cap {
				want = append(want, uint32(i))
			}
		}
	}
	slices.Sort(want)
	if got := heavyBuckets(nil, row, 2, cap); !slices.Equal(got, want) {
		t.Errorf("long row: kept %v, want %v", got, want)
	}
}

// BenchmarkInferenceSaturated times the search DESIGN.md §2's cliff
// drives it into: RS({SIP,DIP}) at the paper geometry over the grid of
// 20 000 spoofed sources on one victim, which expands the 4 M-node cap
// almost entirely in leaves. The options are the defaults plus a Verify
// that, like the detector's verifier on a spoofed flood, confirms none
// of the candidates; without one the output cap would end the search
// after 16 384 leaves.
func BenchmarkInferenceSaturated(b *testing.B) {
	s, err := New(Params64(), 0x5eed)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20000))
	const victim = 0x81690011 // 129.105.0.17, the DIP in the low 32 bits
	for i := 0; i < 20_000; i++ {
		s.Update(uint64(rng.Uint32())<<32|victim, 1)
	}
	g := sketch.NewGrid(s.params.Stages, s.params.Buckets)
	if err := g.AddCounts(s.Snapshot(), 1); err != nil {
		b.Fatal(err)
	}
	opts := InferenceOptions{Verify: func(uint64, float64) bool { return false }}
	leaves := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Inference(g, 60, opts); err != nil {
			b.Fatal(err)
		}
		leaves += s.LastInference().Leaves
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(leaves, 1)), "ns/leaf")
}
