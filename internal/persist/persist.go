// Package persist implements a PSSketch-style persistent-and-sparse
// flow tracker: per-key persistence counters advanced once per EWMA
// interval with lazy decay. A key observed in the low-rate band
// interval after interval builds a streak; a gap longer than MaxGap
// resets it. Stealthy scans and beaconing never clear the per-interval
// SYN-flood threshold, but their streaks do clear MinIntervals — that
// is the whole detection signal.
//
// The tracker is detection-time state only: it consumes decoded keys,
// not packets.
package persist

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// Config bounds a tracker.
type Config struct {
	MinIntervals int // streak length that raises an alert
	MaxGap       int // intervals a key may skip before its streak resets
	MaxEntries   int // hard cap on tracked keys (DoS-resilience bound)
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.MinIntervals < 1 {
		return fmt.Errorf("persist: min intervals %d must be ≥ 1", c.MinIntervals)
	}
	if c.MaxGap < 0 {
		return fmt.Errorf("persist: max gap %d must be ≥ 0", c.MaxGap)
	}
	if c.MaxEntries < 1 {
		return fmt.Errorf("persist: max entries %d must be ≥ 1", c.MaxEntries)
	}
	return nil
}

// Observation is one key surfaced in the persistence band during an
// interval, with its estimated per-interval mass.
type Observation struct {
	Key      uint64
	Estimate float64
}

// Finding is one key whose streak reached MinIntervals this interval.
type Finding struct {
	Key      uint64
	Streak   int     // consecutive (gap-tolerant) intervals observed
	Estimate float64 // largest per-interval estimate over the streak
}

type entry struct {
	streak   int
	lastSeen uint64
	estimate float64 // max over the current streak
}

// Tracker holds the per-key persistence counters. Not safe for
// concurrent use; the detector owns it and advances it at rotation.
type Tracker struct {
	cfg     Config
	entries map[uint64]entry
}

// NewTracker builds an empty tracker.
//
//hifind:cold
func NewTracker(cfg Config) (*Tracker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Tracker{cfg: cfg, entries: make(map[uint64]entry)}, nil
}

// Config returns the tracker bounds.
func (t *Tracker) Config() Config { return t.cfg }

// Len returns the number of tracked keys.
func (t *Tracker) Len() int { return len(t.entries) }

// Streak returns a key's current streak (0 if untracked).
func (t *Tracker) Streak(key uint64) int { return t.entries[key].streak }

// Advance feeds one interval's band observations into the tracker and
// returns the keys whose streak is at MinIntervals or beyond, sorted by
// streak descending, estimate descending, key ascending. Each key
// counts at most once per interval (duplicates only raise the stored
// estimate), streaks survive gaps up to MaxGap intervals, and entries
// unseen for longer are pruned lazily. When the table would exceed
// MaxEntries the weakest entries are evicted deterministically:
// shortest streak first, then least recently seen, then largest key.
func (t *Tracker) Advance(interval uint64, obs []Observation) []Finding {
	for _, o := range obs {
		e, ok := t.entries[o.Key]
		switch {
		case ok && e.lastSeen == interval:
			// Second sighting within the same interval: monotone, the
			// streak moves at most one step per interval.
			if o.Estimate > e.estimate {
				e.estimate = o.Estimate
			}
		case ok && interval >= e.lastSeen && interval-e.lastSeen <= uint64(t.cfg.MaxGap)+1:
			e.streak++
			e.lastSeen = interval
			if o.Estimate > e.estimate {
				e.estimate = o.Estimate
			}
		default:
			e = entry{streak: 1, lastSeen: interval, estimate: o.Estimate}
		}
		t.entries[o.Key] = e
	}
	// Lazy decay: drop keys whose gap already exceeds the tolerance.
	for key, e := range t.entries {
		if interval >= e.lastSeen && interval-e.lastSeen > uint64(t.cfg.MaxGap)+1 {
			delete(t.entries, key)
		}
	}
	t.evict()
	var out []Finding
	for _, o := range obs {
		e, ok := t.entries[o.Key]
		if !ok || e.lastSeen != interval || e.streak < t.cfg.MinIntervals {
			continue
		}
		out = append(out, Finding{Key: o.Key, Streak: e.streak, Estimate: e.estimate})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Streak != out[b].Streak {
			return out[a].Streak > out[b].Streak
		}
		if out[a].Estimate > out[b].Estimate {
			return true
		}
		if out[a].Estimate < out[b].Estimate {
			return false
		}
		return out[a].Key < out[b].Key
	})
	// Duplicate observations would duplicate findings; keep one per key.
	dedup := out[:0]
	byKey := make(map[uint64]bool, len(out))
	for _, f := range out {
		if byKey[f.Key] {
			continue
		}
		byKey[f.Key] = true
		dedup = append(dedup, f)
	}
	return dedup
}

// evict trims the table to MaxEntries, weakest entries first, with a
// fully deterministic order so replicas agree byte-for-byte.
func (t *Tracker) evict() {
	over := len(t.entries) - t.cfg.MaxEntries
	if over <= 0 {
		return
	}
	type cand struct {
		key uint64
		e   entry
	}
	cands := make([]cand, 0, len(t.entries))
	for key, e := range t.entries {
		cands = append(cands, cand{key, e})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].e.streak != cands[b].e.streak {
			return cands[a].e.streak < cands[b].e.streak
		}
		if cands[a].e.lastSeen != cands[b].e.lastSeen {
			return cands[a].e.lastSeen < cands[b].e.lastSeen
		}
		return cands[a].key > cands[b].key
	})
	for i := 0; i < over; i++ {
		delete(t.entries, cands[i].key)
	}
}

// Reset drops every tracked key.
func (t *Tracker) Reset() {
	t.entries = make(map[uint64]entry)
}

// MemoryBytes approximates the table footprint.
func (t *Tracker) MemoryBytes() int {
	// key + streak + lastSeen + estimate per entry.
	return len(t.entries) * (8 + 8 + 8 + 8)
}

const trackerMagic = uint32(0x48695054) // "HiPT"

// MarshalBinary serializes the entries sorted by key — deterministic
// byte-for-byte for identical state, the checkpoint requirement.
func (t *Tracker) MarshalBinary() ([]byte, error) {
	keys := make([]uint64, 0, len(t.entries))
	for key := range t.entries {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	buf := binary.LittleEndian.AppendUint32(nil, trackerMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(keys)))
	for _, key := range keys {
		e := t.entries[key]
		buf = binary.LittleEndian.AppendUint64(buf, key)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.streak))
		buf = binary.LittleEndian.AppendUint64(buf, e.lastSeen)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.estimate))
	}
	return buf, nil
}

// UnmarshalBinary reverses MarshalBinary into a tracker keeping the
// receiver's configuration.
func (t *Tracker) UnmarshalBinary(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("persist: truncated header (%d bytes)", len(data))
	}
	if binary.LittleEndian.Uint32(data) != trackerMagic {
		return fmt.Errorf("persist: bad magic %#x", binary.LittleEndian.Uint32(data))
	}
	n := int(binary.LittleEndian.Uint32(data[4:]))
	if len(data) != 8+n*32 {
		return fmt.Errorf("persist: body length %d, want %d", len(data), 8+n*32)
	}
	entries := make(map[uint64]entry, n)
	off := 8
	for i := 0; i < n; i++ {
		key := binary.LittleEndian.Uint64(data[off:])
		entries[key] = entry{
			streak:   int(binary.LittleEndian.Uint64(data[off+8:])),
			lastSeen: binary.LittleEndian.Uint64(data[off+16:]),
			estimate: math.Float64frombits(binary.LittleEndian.Uint64(data[off+24:])),
		}
		off += 32
	}
	t.entries = entries
	return nil
}
