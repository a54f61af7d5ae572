// Package aggregate implements HiFIND's multi-router deployment (paper
// §3.1, Figure 3 and §5.3.2). Each edge router records traffic into its
// own Recorder; at the end of every interval the routers ship their
// (compact, fixed-size) serialized sketch state to a central site, which
// adds them into its detector's recorder by sketch linearity
// (core.Recorder.AddBinary) and runs detection once over the sum —
// obtaining exactly the result a single router seeing all traffic would
// have produced, asymmetric routing and per-packet load balancing
// notwithstanding.
package aggregate

import (
	"fmt"
	"math/rand"

	"github.com/hifind/hifind/internal/netmodel"
)

// Splitter models per-packet load-balanced routing: every packet
// independently picks one of n routers, so the SYN and SYN/ACK of one
// connection traverse different routers with probability (n−1)/n — the
// paper's 2/3 for n=3. Deterministic given the seed.
type Splitter struct {
	n   int
	rng *rand.Rand
}

// NewSplitter builds a splitter over n routers.
func NewSplitter(n int, seed int64) (*Splitter, error) {
	if n < 1 {
		return nil, fmt.Errorf("aggregate: splitter over %d routers", n)
	}
	return &Splitter{n: n, rng: rand.New(rand.NewSource(seed))}, nil
}

// Route picks the router for one packet.
func (s *Splitter) Route(netmodel.Packet) int { return s.rng.Intn(s.n) }
