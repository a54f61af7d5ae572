package core

import (
	"testing"
	"time"

	"github.com/hifind/hifind/internal/netmodel"
)

// The update path's zero-allocation pin: plans and key powers are
// preallocated or stack-resident, so Observe and ObserveFlow must not
// allocate. The hotpath-alloc lint rule guards the source; this guards
// escape-analysis regressions the AST rule cannot see.

func allocRecorder(t *testing.T) *Recorder {
	t.Helper()
	r, err := NewRecorder(TestRecorderConfig(0xa110c))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestObserveAllocs(t *testing.T) {
	r := allocRecorder(t)
	var i uint32
	allocs := testing.AllocsPerRun(1000, func() {
		r.Observe(netmodel.Packet{
			SrcIP: netmodel.IPv4(0x08080000 | i), DstIP: 0x81690101,
			SrcPort: 40000, DstPort: uint16(i),
			Flags: netmodel.FlagSYN, Dir: netmodel.Inbound,
		})
		r.Observe(netmodel.Packet{
			SrcIP: 0x81690101, DstIP: netmodel.IPv4(0x08080000 | i),
			SrcPort: uint16(i), DstPort: 40000,
			Flags: netmodel.FlagSYN | netmodel.FlagACK, Dir: netmodel.Outbound,
		})
		i++
	})
	if allocs != 0 {
		t.Errorf("Observe allocates %v times per call, want 0", allocs)
	}
}

// TestCachedObserveAllocs pins the cache-enabled hot path: Add (hits,
// installs and the evict-flush, which runs update through the
// bound flush sink) must stay allocation-free too. The cache is one
// probe window so the varying keys force evictions every few calls.
func TestCachedObserveAllocs(t *testing.T) {
	cfg := TestRecorderConfig(0xa110c)
	cfg.FlowCache = 8
	r, err := NewRecorder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var i uint32
	allocs := testing.AllocsPerRun(1000, func() {
		r.Observe(netmodel.Packet{
			SrcIP: netmodel.IPv4(0x08080000 | i), DstIP: 0x81690101,
			SrcPort: 40000, DstPort: uint16(i),
			Flags: netmodel.FlagSYN, Dir: netmodel.Inbound,
		})
		r.Observe(netmodel.Packet{
			SrcIP: 0x81690101, DstIP: netmodel.IPv4(0x08080000 | i),
			SrcPort: uint16(i), DstPort: 40000,
			Flags: netmodel.FlagSYN | netmodel.FlagACK, Dir: netmodel.Outbound,
		})
		i++
	})
	if allocs != 0 {
		t.Errorf("cached Observe allocates %v times per call, want 0", allocs)
	}
	if st := r.CacheStats(); st.Evictions == 0 {
		t.Error("alloc pin never exercised the evict-flush path")
	}
	// The rotation drain must not allocate either.
	allocs = testing.AllocsPerRun(10, func() {
		r.Observe(netmodel.Packet{
			SrcIP: netmodel.IPv4(0x08080000 | i), DstIP: 0x81690101,
			SrcPort: 40000, DstPort: uint16(i),
			Flags: netmodel.FlagSYN, Dir: netmodel.Inbound,
		})
		i++
		r.FlushCache()
	})
	if allocs != 0 {
		t.Errorf("FlushCache allocates %v times per call, want 0", allocs)
	}
}

// TestCachedObserveFlowAllocs is the NetFlow-side cache pin.
func TestCachedObserveFlowAllocs(t *testing.T) {
	cfg := TestRecorderConfig(0xa110c)
	cfg.FlowCache = 8
	r, err := NewRecorder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var i uint32
	allocs := testing.AllocsPerRun(1000, func() {
		r.ObserveFlow(netmodel.FlowRecord{
			SrcIP: netmodel.IPv4(0x08080000 | i), DstIP: 0x81690101,
			SrcPort: 40000, DstPort: uint16(i),
			Dir: netmodel.Inbound, SYNs: 3,
		})
		r.ObserveFlow(netmodel.FlowRecord{
			SrcIP: 0x81690101, DstIP: netmodel.IPv4(0x08080000 | i),
			SrcPort: uint16(i), DstPort: 40000,
			Dir: netmodel.Outbound, SYNACKs: 2,
		})
		i++
	})
	if allocs != 0 {
		t.Errorf("cached ObserveFlow allocates %v times per call, want 0", allocs)
	}
}

func TestObserveFlowAllocs(t *testing.T) {
	r := allocRecorder(t)
	var i uint32
	allocs := testing.AllocsPerRun(1000, func() {
		r.ObserveFlow(netmodel.FlowRecord{
			SrcIP: netmodel.IPv4(0x08080000 | i), DstIP: 0x81690101,
			SrcPort: 40000, DstPort: uint16(i),
			Dir: netmodel.Inbound, SYNs: 3,
		})
		r.ObserveFlow(netmodel.FlowRecord{
			SrcIP: 0x81690101, DstIP: netmodel.IPv4(0x08080000 | i),
			SrcPort: uint16(i), DstPort: 40000,
			Dir: netmodel.Outbound, SYNACKs: 2,
		})
		i++
	})
	if allocs != 0 {
		t.Errorf("ObserveFlow allocates %v times per call, want 0", allocs)
	}
}

// TestAddBinaryAllocs pins the merge path: adding serialized states
// validates and sums in place, so two contributors allocate nothing — at
// paper geometry, and with every optional structure (burst and
// reflection monitors) on.
func TestAddBinaryAllocs(t *testing.T) {
	full := TestRecorderConfig(0xa110c)
	full.BurstSlots, full.BurstWindow = 4, 15*time.Second
	full.Reflection = true
	for name, cfg := range map[string]RecorderConfig{
		"paper": PaperRecorderConfig(0xa110c),
		"full":  full,
	} {
		t.Run(name, func(t *testing.T) {
			r, err := NewRecorder(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var payloads [2][]byte
			for i := range payloads {
				src, err := NewRecorder(cfg)
				if err != nil {
					t.Fatal(err)
				}
				feed(src, diffStream(int64(i), 500))
				payloads[i] = mustMarshal(t, src)
			}
			allocs := testing.AllocsPerRun(5, func() {
				if err := r.AddBinary(payloads[0], payloads[1]); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("AddBinary of two payloads allocates %v times per call, want 0", allocs)
			}
		})
	}
}
