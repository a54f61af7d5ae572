// Package sketch is a golden-test stand-in for the real sketch family:
// hotpath-alloc matches on the package-path suffix and the hot method
// names, so these deliberately allocating bodies must all be flagged.
package sketch

import "fmt"

type Sketch struct {
	counts []int32
	names  []string
}

func (s *Sketch) Update(key uint64, v int32) {
	buf := make([]float64, 4) // want `make allocates in hot path Update`
	_ = buf
	s.names = append(s.names, "x") // want `append allocates in hot path Update`
	m := map[uint64]int32{key: v}  // want `map literal allocates in hot path Update`
	_ = m
	p := new(int64) // want `new allocates in hot path Update`
	_ = p
}

func (s *Sketch) Estimate(key uint64) float64 {
	lbl := fmt.Sprintf("key-%d", key) // want `fmt.Sprintf allocates in hot path Estimate`
	lbl += "!"                        // want `string concatenation allocates in hot path Estimate`
	_ = lbl
	vals := []float64{1, 2} // want `slice literal allocates in hot path Estimate`
	return vals[0]
}

func (s *Sketch) EstimateGrid(key uint64) float64 {
	grid := make([]float64, 8) // want `make allocates in hot path EstimateGrid`
	return grid[0]
}

func (s *Sketch) AddBinary(data []byte) error {
	tags := "a" + s.names[0] // want `string concatenation allocates in hot path AddBinary`
	_ = tags
	s.counts[0] += int32(data[0])
	return nil
}
