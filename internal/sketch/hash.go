// Package sketch implements the k-ary sketch of Krishnamurthy et al.
// (IMC 2003) — the paper's "original sketch" — together with the hashing
// and key-mangling substrate shared by the reversible and two-dimensional
// sketches. A sketch supports the four operations of paper Table 2:
// UPDATE, ESTIMATE, COMBINE (all sketches) and, for reversible sketches,
// INFERENCE (package revsketch).
package sketch

import "math/bits"

// mersenne61 is the Mersenne prime 2^61−1 used as the field for polynomial
// universal hashing. Arithmetic mod 2^61−1 reduces with shifts only.
const mersenne61 = uint64(1)<<61 - 1

// SplitMix64 advances the classic splitmix64 generator and returns the
// next value. It seeds every hash function in the system deterministically
// from a single user seed, so two sketches built with the same seed and
// parameters are COMBINE-compatible by construction.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// mod61 reduces x modulo 2^61−1.
func mod61(x uint64) uint64 {
	x = (x >> 61) + (x & mersenne61)
	if x >= mersenne61 {
		x -= mersenne61
	}
	return x
}

// mulMod61 multiplies two residues modulo 2^61−1 using a 128-bit product.
// 2^64 ≡ 8 (mod 2^61−1), so hi·2^64 + lo ≡ 8·hi + lo.
func mulMod61(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// 8·hi can be up to ~2^64, so reduce the pieces separately before adding.
	return mod61(mod61(hi<<3) + mod61(lo))
}

// Poly4 is a degree-3 polynomial over GF(2^61−1), giving a 4-universal
// hash family: any four distinct keys hash jointly uniformly. 4-universality
// is what the k-ary sketch variance analysis assumes; it is also plenty for
// the per-word tabulation hashes of the reversible sketch.
type Poly4 struct {
	coeff [4]uint64
}

// NewPoly4 draws a random polynomial from the family using the supplied
// splitmix state.
func NewPoly4(state *uint64) Poly4 {
	var p Poly4
	for i := range p.coeff {
		p.coeff[i] = mod61(SplitMix64(state))
	}
	// A zero leading coefficient would degrade the family; nudge it.
	if p.coeff[3] == 0 {
		p.coeff[3] = 1
	}
	return p
}

// Hash evaluates the polynomial at x (reduced into the field first) and
// returns a value in [0, 2^61−1).
func (p Poly4) Hash(x uint64) uint64 {
	x = mod61(x)
	h := p.coeff[3]
	for i := 2; i >= 0; i-- {
		h = mod61(mulMod61(h, x) + p.coeff[i])
	}
	return h
}

// HashRange maps x uniformly into [0, n). n must be a power of two; the
// sketch parameter validation guarantees this, so the method masks rather
// than divides.
func (p Poly4) HashRange(x uint64, n int) uint32 {
	// Use the high bits of the 61-bit hash: the low bits of a polynomial
	// over a Mersenne field are slightly less uniform.
	return uint32((p.Hash(x) >> (61 - uint(bits.Len(uint(n-1))))) & uint64(n-1))
}

// KeyPowers is the per-key hash material every polynomial hash of the
// same key shares: the key's residue and its square and cube in the
// field. HiFIND hashes each packed key through several independently
// seeded Poly4 families (verifier, OS, 2D sketches); the powers depend
// only on the key, so the recorder computes them once per
// packet and fans them out, replacing one Horner chain per structure
// per stage.
type KeyPowers struct {
	X, X2, X3 uint64
}

// PowersOf reduces the key into the field and returns its first three
// powers.
func PowersOf(key uint64) KeyPowers {
	x := mod61(key)
	x2 := mulMod61(x, x)
	return KeyPowers{X: x, X2: x2, X3: mulMod61(x2, x)}
}

// HashPow evaluates the polynomial from precomputed key powers. The
// result is bit-identical to Hash(key) for the key the powers came
// from: both compute the same residue of c₃x³+c₂x²+c₁x+c₀ and both
// return it fully reduced into [0, 2^61−1) — each product term is a
// reduced residue < 2^61, so the four-term sum stays below 2^63 and one
// mod61 finishes the reduction. Unlike Horner's rule the three products
// are independent, so the multiplier pipeline overlaps them.
func (p Poly4) HashPow(kp KeyPowers) uint64 {
	return mod61(mulMod61(p.coeff[3], kp.X3) + mulMod61(p.coeff[2], kp.X2) +
		mulMod61(p.coeff[1], kp.X) + p.coeff[0])
}

// HashRangePow is HashRange evaluated from precomputed key powers;
// identical output for the same key.
func (p Poly4) HashRangePow(kp KeyPowers, n int) uint32 {
	return uint32((p.HashPow(kp) >> (61 - uint(bits.Len(uint(n-1))))) & uint64(n-1))
}

// IsPowerOfTwo reports whether n is a positive power of two.
func IsPowerOfTwo(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// Log2 returns log2(n) for a power of two n.
func Log2(n int) int {
	return bits.TrailingZeros(uint(n))
}
