package sketch

// Clean shows the sanctioned shapes: fixed-size arrays, pre-allocated
// scratch, constant-folded concatenation, and free allocation outside
// the UPDATE/ESTIMATE/COMBINE contract.
type Clean struct {
	counts  [4]int32
	scratch [4]float64
}

func (c *Clean) Update(key uint64, v int32) {
	c.counts[key&3] += v
}

func (c *Clean) Estimate(key uint64) float64 {
	c.scratch[0] = float64(c.counts[key&3])
	return c.scratch[0]
}

func (c *Clean) AddBinary(data []byte) {
	const tag = "add" + "binary" // folded at compile time: no allocation
	for i := range c.counts {
		c.counts[i] += int32(data[i])
	}
	_ = tag
}

// NewClean is a constructor, not a hot-path operation: allocation is fine.
func NewClean(n int) []Clean {
	return make([]Clean, n)
}

// snapshot is not part of the hot-path contract either.
func (c *Clean) snapshot() []int32 {
	return append([]int32(nil), c.counts[:]...)
}
