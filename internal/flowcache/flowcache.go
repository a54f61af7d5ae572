// Package flowcache implements a bounded, allocation-free exact flow
// table that sits in front of the sketch fan-out: per-connection
// updates accumulate in one cache entry instead of fanning out to every
// sketch, and entries leave the cache — on eviction, at interval
// rotation, before marshaling — as one aggregated (key, weight) flush
// through the recorder's weighted-update path. Sketch linearity
// (Update(k, v·c) ≡ c× Update(k, v), exactly, including int32
// wraparound) makes the deferred aggregate mathematically equal to the
// per-packet stream it replaces, so cached and cache-less recorders
// build byte-identical state; the differential suite in internal/core
// proves it.
//
// The table is a structure-of-arrays open-addressing hash table with a
// bounded probe window and a second-chance (clock) eviction policy:
// every array is allocated once at construction, Add never allocates,
// and a miss in a full window evicts the first non-referenced entry of
// the window (clearing reference bits as it scans, falling back to the
// home slot when every entry was recently touched). Skewed traffic —
// the elephant/mice mixes real edges carry — keeps the hot flows
// resident, so most packets cost one probe instead of a sketch fan-out.
package flowcache

import (
	"fmt"

	"github.com/hifind/hifind/internal/netmodel"
)

// FlushFunc receives one aggregated flow when its entry leaves the
// cache: syns SYN packets and acks SYN/ACK packets accumulated under
// connection (sip, dip, dport). Implementations must be exact under
// aggregation — the recorder's weighted-update path is.
type FlushFunc func(sip, dip netmodel.IPv4, dport uint16, syns, acks int64)

// Stats counts cache traffic since construction or the last Clear.
type Stats struct {
	// Hits and Misses partition Add calls: a hit found the connection
	// resident, a miss installed it (possibly evicting another).
	Hits, Misses int64
	// Evictions counts misses that had to flush a resident entry to
	// make room; Flushes counts every flushed entry, evictions and
	// drains alike.
	Evictions, Flushes int64
}

// window is the bounded probe length: a lookup touches at most this
// many slots, so the per-packet cost stays O(1) no matter how full or
// colliding the table runs.
const window = 8

// state-byte bits.
const (
	occupiedBit = 1 << 0
	refBit      = 1 << 1 // second-chance: touched since the last eviction scan
)

// Cache is the flow table. Methods are not safe for concurrent use —
// one cache belongs to one recorder, like the recorder's own plans.
type Cache struct {
	// Structure-of-arrays entry storage: parallel slices indexed by
	// slot. key1 packs the connection endpoints (sip<<32 | dip); dport
	// completes the key; syns and acks accumulate the two packet
	// classes separately, because they weight the sketch fan-out
	// differently (SYNs feed the OS sketch, SYN/ACKs subtract).
	key1  []uint64
	dport []uint16
	syns  []int64
	acks  []int64
	state []uint8

	mask     uint64
	occupied int
	flush    FlushFunc
	stats    Stats
}

// New builds a cache with capacity rounded up to the next power of two
// of entries (minimum one probe window). entries must be positive and
// config-derived — the cache bounds recorder memory the same way the
// pipeline's queue depths bound ingestion buffering. flush receives
// every aggregated entry that leaves the table and must be non-nil.
func New(entries int, flush FlushFunc) (*Cache, error) {
	if entries < 1 {
		return nil, fmt.Errorf("flowcache: entries %d < 1", entries)
	}
	if flush == nil {
		return nil, fmt.Errorf("flowcache: nil flush func")
	}
	slots := window
	for slots < entries {
		slots <<= 1
	}
	return &Cache{
		key1:  make([]uint64, slots),
		dport: make([]uint16, slots),
		syns:  make([]int64, slots),
		acks:  make([]int64, slots),
		state: make([]uint8, slots),
		mask:  uint64(slots - 1),
		flush: flush,
	}, nil
}

// Len returns the number of resident entries.
func (c *Cache) Len() int { return c.occupied }

// Cap returns the slot count.
func (c *Cache) Cap() int { return len(c.state) }

// Occupancy returns the resident fraction of the table.
func (c *Cache) Occupancy() float64 { return float64(c.occupied) / float64(len(c.state)) }

// Stats returns the traffic counters.
func (c *Cache) Stats() Stats { return c.stats }

// mix is a splitmix64-style finalizer over the packed connection key.
// The hash only decides which slot aggregates a connection — never any
// sketch index — so its quality affects hit ratio, not accuracy.
func mix(key1 uint64, dport uint16) uint64 {
	x := key1 ^ uint64(dport)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Add accumulates syns and acks under connection (sip, dip, dport),
// installing the connection if absent and evicting a window neighbor
// if the probe window is full. Runs on the per-packet path: one hash,
// at most one probe window of array reads, no allocation.
//
//hifind:hot
func (c *Cache) Add(sip, dip netmodel.IPv4, dport uint16, syns, acks int64) {
	key1 := uint64(sip)<<32 | uint64(dip)
	home := mix(key1, dport) & c.mask
	// Scan the whole window: eviction punches holes anywhere, so an
	// empty slot does not terminate the probe the way classic linear
	// probing would. Remember the first hole for installation.
	free := -1
	for i := uint64(0); i < window; i++ {
		s := (home + i) & c.mask
		if c.state[s]&occupiedBit == 0 {
			if free < 0 {
				free = int(s)
			}
			continue
		}
		if c.key1[s] == key1 && c.dport[s] == dport {
			c.syns[s] += syns
			c.acks[s] += acks
			c.state[s] = occupiedBit | refBit
			c.stats.Hits++
			return
		}
	}
	c.stats.Misses++
	if free < 0 {
		// Second chance within the window: evict the first entry not
		// referenced since the last scan, clearing reference bits as we
		// go; when every neighbor was recently touched, the home slot
		// loses its chance.
		victim := home
		for i := uint64(0); i < window; i++ {
			s := (home + i) & c.mask
			if c.state[s]&refBit == 0 {
				victim = s
				break
			}
			c.state[s] &^= refBit
		}
		c.flushSlot(victim)
		c.stats.Evictions++
		free = int(victim)
	}
	// Install with the reference bit clear: a flow earns residency by
	// being touched again. One-shot mice therefore stay immediately
	// evictable instead of pushing the scan into its evict-the-home
	// fallback, which is what keeps genuinely hot flows resident.
	c.key1[free] = key1
	c.dport[free] = dport
	c.syns[free] = syns
	c.acks[free] = acks
	c.state[free] = occupiedBit
	c.occupied++
}

// flushSlot hands slot s's aggregate to the flush func and empties it.
func (c *Cache) flushSlot(s uint64) {
	if c.state[s]&occupiedBit == 0 {
		return
	}
	k1 := c.key1[s]
	c.flush(netmodel.IPv4(k1>>32), netmodel.IPv4(k1&0xffffffff), c.dport[s], c.syns[s], c.acks[s])
	c.state[s] = 0
	c.occupied--
	c.stats.Flushes++
}

// FlushAll drains every resident entry through the flush func in slot
// order. Flush order cannot affect the resulting sketch state — sketch
// updates commute — so slot order is simply the deterministic choice.
func (c *Cache) FlushAll() {
	for s := uint64(0); s < uint64(len(c.state)); s++ {
		c.flushSlot(s)
	}
}

// Clear discards every resident entry without flushing and zeroes the
// stats: the recorder's interval Reset, where pending aggregates belong
// to state that is being thrown away.
func (c *Cache) Clear() {
	for s := range c.state {
		c.state[s] = 0
	}
	c.occupied = 0
	c.stats = Stats{}
}
