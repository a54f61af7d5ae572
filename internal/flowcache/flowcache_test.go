package flowcache

import (
	"math/rand"
	"testing"

	"github.com/hifind/hifind/internal/netmodel"
)

// flowKey identifies one connection for the reference aggregation maps.
type flowKey struct {
	sip, dip netmodel.IPv4
	dport    uint16
}

// collector is a FlushFunc that records everything flushed.
type collector struct {
	syns, acks map[flowKey]int64
	calls      int
}

func newCollector() *collector {
	return &collector{syns: map[flowKey]int64{}, acks: map[flowKey]int64{}}
}

func (c *collector) flush(sip, dip netmodel.IPv4, dport uint16, syns, acks int64) {
	k := flowKey{sip, dip, dport}
	c.syns[k] += syns
	c.acks[k] += acks
	c.calls++
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, func(netmodel.IPv4, netmodel.IPv4, uint16, int64, int64) {}); err == nil {
		t.Fatal("entries 0 accepted")
	}
	if _, err := New(16, nil); err == nil {
		t.Fatal("nil flush accepted")
	}
	c, err := New(100, func(netmodel.IPv4, netmodel.IPv4, uint16, int64, int64) {})
	if err != nil {
		t.Fatal(err)
	}
	if c.Cap() != 128 {
		t.Fatalf("capacity %d, want next power of two 128", c.Cap())
	}
	if c, _ = New(1, func(netmodel.IPv4, netmodel.IPv4, uint16, int64, int64) {}); c.Cap() != window {
		t.Fatalf("capacity %d, want the probe-window minimum %d", c.Cap(), window)
	}
}

// TestAggregationExact drives a skewed random stream through a small
// cache (forcing plenty of evictions) and checks that the union of
// evicted and drained aggregates equals a direct per-connection sum:
// nothing lost, nothing duplicated, nothing misattributed.
func TestAggregationExact(t *testing.T) {
	col := newCollector()
	c, err := New(64, col.flush)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(0xcafe))
	want := map[flowKey]int64{}
	wantAcks := map[flowKey]int64{}
	for i := 0; i < 20_000; i++ {
		k := flowKey{
			sip:   netmodel.IPv4(rng.Intn(400)),
			dip:   netmodel.IPv4(0x81690000 + uint32(rng.Intn(50))),
			dport: uint16(80 + rng.Intn(4)),
		}
		syns, acks := int64(rng.Intn(3)), int64(rng.Intn(2))
		c.Add(k.sip, k.dip, k.dport, syns, acks)
		want[k] += syns
		wantAcks[k] += acks
	}
	c.FlushAll()
	if c.Len() != 0 {
		t.Fatalf("%d entries resident after FlushAll", c.Len())
	}
	for k, v := range want {
		if col.syns[k] != v {
			t.Fatalf("connection %v: flushed %d SYNs, want %d", k, col.syns[k], v)
		}
	}
	for k, v := range wantAcks {
		if col.acks[k] != v {
			t.Fatalf("connection %v: flushed %d SYN/ACKs, want %d", k, col.acks[k], v)
		}
	}
	if len(col.syns) > len(want) {
		t.Fatalf("flushed %d distinct connections, only %d existed", len(col.syns), len(want))
	}
	st := c.Stats()
	if st.Hits+st.Misses != 20_000 {
		t.Fatalf("hits %d + misses %d != adds 20000", st.Hits, st.Misses)
	}
	if st.Evictions == 0 {
		t.Fatal("a 64-entry cache absorbed 400+ connections without evicting")
	}
	if st.Flushes != int64(col.calls) {
		t.Fatalf("Flushes %d != flush calls %d", st.Flushes, col.calls)
	}
}

// TestHotFlowStaysResident checks the second-chance policy's point: a
// flow touched every round survives a stream of one-shot colliders.
func TestHotFlowStaysResident(t *testing.T) {
	col := newCollector()
	c, err := New(256, col.flush)
	if err != nil {
		t.Fatal(err)
	}
	hot := flowKey{sip: 0x01020304, dip: 0x81690001, dport: 80}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50_000; i++ {
		c.Add(hot.sip, hot.dip, hot.dport, 1, 0)
		// Background: mostly-unique mice.
		c.Add(netmodel.IPv4(rng.Uint32()), 0x81690002, 443, 1, 0)
	}
	if got := col.syns[hot]; got != 0 {
		t.Fatalf("hot flow was evicted (%d SYNs flushed early)", got)
	}
	st := c.Stats()
	if st.Hits < 49_000 {
		t.Fatalf("hot flow hit only %d of 50000 rounds", st.Hits)
	}
	c.FlushAll()
	if col.syns[hot] != 50_000 {
		t.Fatalf("hot flow drained %d SYNs, want 50000", col.syns[hot])
	}
}

// TestDeterminism: same stream, same cache size ⇒ identical flush
// sequence and stats, run to run.
func TestDeterminism(t *testing.T) {
	type flushRec struct {
		k          flowKey
		syns, acks int64
	}
	run := func() ([]flushRec, Stats) {
		var seq []flushRec
		c, err := New(32, func(sip, dip netmodel.IPv4, dport uint16, syns, acks int64) {
			seq = append(seq, flushRec{flowKey{sip, dip, dport}, syns, acks})
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 5_000; i++ {
			c.Add(netmodel.IPv4(rng.Intn(200)), 0x0a000001, uint16(rng.Intn(8)), 1, int64(i&1))
		}
		c.FlushAll()
		return seq, c.Stats()
	}
	a, sa := run()
	b, sb := run()
	if sa != sb {
		t.Fatalf("stats differ across runs: %+v vs %+v", sa, sb)
	}
	if len(a) != len(b) {
		t.Fatalf("flush counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("flush %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestClearDiscards: Clear drops entries and stats without flushing.
func TestClearDiscards(t *testing.T) {
	col := newCollector()
	c, err := New(16, col.flush)
	if err != nil {
		t.Fatal(err)
	}
	c.Add(1, 2, 3, 4, 5)
	c.Clear()
	if col.calls != 0 {
		t.Fatalf("Clear flushed %d entries", col.calls)
	}
	if c.Len() != 0 || c.Occupancy() != 0 {
		t.Fatalf("entries resident after Clear: len %d", c.Len())
	}
	if (c.Stats() != Stats{}) {
		t.Fatalf("stats survive Clear: %+v", c.Stats())
	}
	// The table still works after Clear.
	c.Add(1, 2, 3, 4, 5)
	c.FlushAll()
	if col.syns[flowKey{1, 2, 3}] != 4 || col.acks[flowKey{1, 2, 3}] != 5 {
		t.Fatal("post-Clear add lost its aggregate")
	}
}

// TestAddAllocationFree pins the per-packet contract: Add (hits,
// misses and evictions alike) never allocates.
func TestAddAllocationFree(t *testing.T) {
	c, err := New(32, func(netmodel.IPv4, netmodel.IPv4, uint16, int64, int64) {})
	if err != nil {
		t.Fatal(err)
	}
	var i uint32
	allocs := testing.AllocsPerRun(2000, func() {
		i++
		c.Add(netmodel.IPv4(i), 0x0a000001, uint16(i&3), 1, 0)
		c.Add(0x01020304, 0x0a000001, 80, 1, 1) // steady hit
	})
	if allocs != 0 {
		t.Fatalf("Add allocates %.1f times per round, want 0", allocs)
	}
}
