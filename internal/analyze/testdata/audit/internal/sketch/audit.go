// Package sketch exercises the suppression audit: a directive whose
// finding was fixed (or never existed) must be reported as unused, and
// a directive naming a rule that does not exist must be reported as a
// bad directive — both would otherwise rot silently.
package sketch

type Acc struct {
	buf [4]float64
}

// Estimate no longer allocates, so the directive suppresses nothing.
func (a *Acc) Estimate(key uint64) float64 {
	//lint:ignore hotpath-alloc the scratch buffer moved into the struct in a refactor // want `matches no finding`
	return a.buf[key&3]
}

// AddBinary carries a typo'd rule ID: it would never suppress anything.
func (a *Acc) AddBinary(data []byte) {
	//lint:ignore hotpath-malloc commutative accumulation // want `unknown rule "hotpath-malloc"`
	for i := range a.buf {
		a.buf[i] += float64(data[i])
	}
}
