// Package burst implements an ALBUS-style sub-interval burst monitor:
// one reversible sketch per sub-interval slot, all sharing one hash
// family, so a pulse flood shorter than the EWMA interval concentrates
// in a single slot instead of averaging away. Detection reverse-hashes
// each slot for keys whose per-slot mass clears a burst threshold, then
// applies the long-duration-flow filter: a key whose mass summed across
// every slot already clears the sustained-flood threshold is the EWMA
// detector's job and is suppressed here, leaving exactly the pulses the
// interval detector cannot see.
//
// All per-slot state is linear (it is plain reversible-sketch
// counters), so COMBINE across routers and the weighted NetFlow path
// stay exact.
package burst

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"github.com/hifind/hifind/internal/revsketch"
)

// Slots is the monitor's slot count: eight 7.5-second windows at the
// default one-minute interval. The trace generator's burst preset
// confines each pulse to one of these windows.
const Slots = 8

// Array is one burst monitor: Slots reversible sketches sharing one
// hash family. Like every other HiFIND structure it is not safe for
// concurrent use.
type Array struct {
	window time.Duration
	slots  [Slots]*revsketch.Sketch
}

// New builds an empty burst monitor whose slots each span window. Slot
// 0 is built from params and seed and the others are its siblings, so
// every slot hashes identically, the slots share one set of hash and
// reverse tables, and COMBINE across routers with equal configuration
// is exact.
//
//hifind:cold
func New(params revsketch.Params, window time.Duration, seed uint64) (*Array, error) {
	if window <= 0 {
		return nil, fmt.Errorf("burst: window %v must be positive", window)
	}
	first, err := revsketch.New(params, seed)
	if err != nil {
		return nil, err
	}
	a := &Array{window: window}
	a.slots[0] = first
	for i := 1; i < Slots; i++ {
		a.slots[i] = first.Sibling()
	}
	return a, nil
}

// Slot maps a timestamp to its slot index. Slots cycle modulo the
// interval, so the array self-overwrites interval to interval once
// Reset runs at rotation.
func (a *Array) Slot(ts time.Time) int {
	s := int(ts.UnixNano() / int64(a.window) % Slots)
	if s < 0 {
		s += Slots
	}
	return s
}

// Update adds v to the key in one slot.
func (a *Array) Update(slot int, key uint64, v int32) {
	a.slots[slot].Update(key, v)
}

// AccessesPerUpdate returns the counter words one update touches, for
// the recorder's memory-access accounting.
func (a *Array) AccessesPerUpdate() int {
	return a.slots[0].Params().Stages
}

// Reset zeroes every slot for the next interval.
func (a *Array) Reset() {
	for _, s := range a.slots {
		s.Reset()
	}
}

// MemoryBytes returns the counter footprint across all slots.
func (a *Array) MemoryBytes() int {
	return Slots * a.slots[0].MemoryBytes()
}

const arrayMagic = uint32(0x48694241) // "HiBA"

// MarshalBinary serializes the monitor: header plus one length-prefixed
// reversible-sketch block per slot, deterministic byte-for-byte.
func (a *Array) MarshalBinary() ([]byte, error) {
	buf := binary.LittleEndian.AppendUint32(nil, arrayMagic)
	buf = binary.LittleEndian.AppendUint32(buf, Slots)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(a.window))
	for _, s := range a.slots {
		blk, err := s.MarshalBinary()
		if err != nil {
			return nil, err
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(blk)))
		buf = append(buf, blk...)
	}
	return buf, nil
}

// AddBinary adds a MarshalBinary encoding into a, slot by slot. The
// encoding must carry a's slot count and window, and every slot block
// must pass revsketch's checks against its slot; otherwise AddBinary
// returns an error and a is unchanged, because every slot validates
// before any is added. With apply false it only validates.
func (a *Array) AddBinary(data []byte, apply bool) error {
	if err := a.addSlots(data, false); err != nil || !apply {
		return err
	}
	return a.addSlots(data, true)
}

// addSlots walks the encoding's slot blocks, handing each to its slot.
func (a *Array) addSlots(data []byte, apply bool) error {
	if len(data) < 16 {
		return fmt.Errorf("burst: truncated header (%d bytes)", len(data))
	}
	if m := binary.LittleEndian.Uint32(data); m != arrayMagic {
		return fmt.Errorf("burst: bad magic %#x", m)
	}
	slots := int(binary.LittleEndian.Uint32(data[4:]))
	window := time.Duration(binary.LittleEndian.Uint64(data[8:]))
	if slots != Slots || window != a.window {
		return fmt.Errorf("burst: %d slots of %v, want %d of %v", slots, window, Slots, a.window)
	}
	off := 16
	for i, s := range a.slots {
		if len(data) < off+4 {
			return fmt.Errorf("burst: truncated slot %d length", i)
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if len(data)-off < n {
			return fmt.Errorf("burst: truncated slot %d body", i)
		}
		if err := s.AddBinary(data[off:off+n], apply); err != nil {
			return fmt.Errorf("burst: slot %d: %w", i, err)
		}
		off += n
	}
	if off != len(data) {
		return fmt.Errorf("burst: %d trailing bytes", len(data)-off)
	}
	return nil
}

// Finding is one burst offender: a key whose peak single-slot mass
// clears the burst threshold while its across-slot total stays below
// the sustained-flood threshold.
type Finding struct {
	Key   uint64
	Peak  float64 // mass in the heaviest slot
	Slot  int     // which slot carried the peak
	Total float64 // mass summed across all slots
}

// Detect reverse-hashes every slot for keys at or above slotThreshold,
// reporting each slot search's work to searched, drops keys whose
// across-slot total reaches suppressTotal (long-duration flows belong
// to the interval detector), and returns the survivors sorted by peak
// descending, key ascending — a deterministic order for the golden
// harness. opts steers every slot search; its Verify is the alias
// filter, and a positive MaxKeys also caps the findings returned.
func (a *Array) Detect(slotThreshold, suppressTotal float64, opts revsketch.InferenceOptions,
	searched func(revsketch.InferenceStats)) ([]Finding, error) {
	seen := make(map[uint64]bool)
	var keys []uint64
	for i, s := range a.slots {
		found, err := s.InferenceCounts(slotThreshold, opts)
		if err != nil {
			return nil, fmt.Errorf("burst: slot %d inference: %w", i, err)
		}
		searched(s.LastInference())
		for _, ke := range found {
			if !seen[ke.Key] {
				seen[ke.Key] = true
				keys = append(keys, ke.Key)
			}
		}
	}
	var out []Finding
	for _, key := range keys {
		f := Finding{Key: key}
		for i, s := range a.slots {
			est := s.Estimate(key)
			f.Total += est
			if i == 0 || est > f.Peak {
				f.Peak = est
				f.Slot = i
			}
		}
		if f.Peak < slotThreshold || f.Total >= suppressTotal {
			continue
		}
		out = append(out, f)
	}
	sort.Slice(out, func(x, y int) bool {
		if out[x].Peak > out[y].Peak {
			return true
		}
		if out[x].Peak < out[y].Peak {
			return false
		}
		return out[x].Key < out[y].Key
	})
	if opts.MaxKeys > 0 && len(out) > opts.MaxKeys {
		out = out[:opts.MaxKeys]
	}
	return out, nil
}
