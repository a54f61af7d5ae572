package sketch

import (
	"encoding/binary"
	"fmt"
)

// Table is the counter array every linear sketch here records into:
// stage-major int32 rows, Counts[stage][bucket], carved from one
// backing array, plus Sum, the running total of every value added. The
// k-ary, reversible and 2D sketches embed a Table and keep only their
// hashing; the table owns allocation, the per-interval housekeeping and
// the one wire block, so COMBINE (paper Table 2) adds counter arrays
// that share one layout whatever sketch built them.
type Table struct {
	Counts [][]int32
	Sum    int64
}

// NewTable allocates a zeroed table of stages rows of width counters.
//
//hifind:cold
func NewTable(stages, width int) Table {
	rows := make([][]int32, stages)
	backing := make([]int32, stages*width)
	for i := range rows {
		rows[i] = backing[i*width : (i+1)*width : (i+1)*width]
	}
	return Table{Counts: rows}
}

// width is the number of counters per stage.
func (t *Table) width() int { return len(t.Counts[0]) }

// Snapshot deep-copies the counter array, e.g. for the forecaster.
func (t *Table) Snapshot() [][]int32 {
	out := NewTable(len(t.Counts), t.width())
	for i, row := range t.Counts {
		copy(out.Counts[i], row)
	}
	return out.Counts
}

// Occupancy returns the fraction of counters holding a nonzero value,
// averaged over all stages. Sampled at interval rotation it is the
// saturation signal the telemetry layer exposes: as occupancy
// approaches 1 the k-ary estimates lose the sparsity their variance
// bound assumes and reverse inference surfaces more spurious
// candidates, which is exactly the condition a DoS against the monitor
// itself would induce.
func (t *Table) Occupancy() float64 {
	var nonzero, total int
	for _, row := range t.Counts {
		total += len(row)
		for _, v := range row {
			if v != 0 {
				nonzero++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(nonzero) / float64(total)
}

// Reset zeroes the counters and the total for the next measurement
// interval. Hashing lives in the embedding sketch and is kept, so
// estimates remain comparable across intervals.
func (t *Table) Reset() {
	for _, row := range t.Counts {
		clear(row)
	}
	t.Sum = 0
}

// MemoryBytes returns the counter memory footprint, the number the
// paper's Table 9 compares against per-flow tables.
func (t *Table) MemoryBytes() int { return len(t.Counts) * t.width() * 4 }

// The wire block of a table: magic, the sketch type's geometry words,
// seed, total, then every counter stage by stage, all fixed-width
// little-endian.
func blockHeaderLen(words int) int { return 4 + 4*words + 8 + 8 }

// MarshalBlock returns the table's wire block. The magic names the
// sketch type and the geometry words and seed identify its hashing, so
// AddBlock on another router's sketch can refuse what it could not add
// exactly. It is the only writer of a counter block.
func (t *Table) MarshalBlock(magic uint32, seed uint64, geometry ...uint32) []byte {
	buf := make([]byte, 0, blockHeaderLen(len(geometry))+4*len(t.Counts)*t.width())
	buf = binary.LittleEndian.AppendUint32(buf, magic)
	for _, w := range geometry {
		buf = binary.LittleEndian.AppendUint32(buf, w)
	}
	buf = binary.LittleEndian.AppendUint64(buf, seed)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(t.Sum))
	for _, row := range t.Counts {
		for _, c := range row {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(c))
		}
	}
	return buf
}

// AddBlock adds a block written by MarshalBlock into t: COMBINE with unit
// coefficients, read straight from the wire. The block must carry
// exactly this magic, these geometry words and this seed, at exactly
// t's length; otherwise AddBlock returns an error and t is unchanged.
// With apply false it only validates, so a caller adding several blocks
// can check them all before changing anything. It allocates nothing
// unless it fails.
func (t *Table) AddBlock(data []byte, apply bool, magic uint32, seed uint64, geometry ...uint32) error {
	head := blockHeaderLen(len(geometry))
	if len(data) < head {
		return fmt.Errorf("%s block: truncated header (%d bytes)", magicName(magic), len(data))
	}
	if m := binary.LittleEndian.Uint32(data); m != magic {
		return fmt.Errorf("%s block: bad magic %#x", magicName(magic), m)
	}
	for i, want := range geometry {
		if got := binary.LittleEndian.Uint32(data[4+4*i:]); got != want {
			return fmt.Errorf("%s block: geometry word %d is %d, want %d", magicName(magic), i, got, want)
		}
	}
	off := 4 + 4*len(geometry)
	if got := binary.LittleEndian.Uint64(data[off:]); got != seed {
		return fmt.Errorf("%s block: seed %d, want %d", magicName(magic), got, seed)
	}
	if want := head + 4*len(t.Counts)*t.width(); len(data) != want {
		return fmt.Errorf("%s block: length %d, want %d", magicName(magic), len(data), want)
	}
	if !apply {
		return nil
	}
	t.Sum += int64(binary.LittleEndian.Uint64(data[off+8:]))
	off = head
	for _, row := range t.Counts {
		for j := range row {
			row[j] += int32(binary.LittleEndian.Uint32(data[off:]))
			off += 4
		}
	}
	return nil
}

// magicName renders a block magic as its four ASCII letters ("HiKS").
func magicName(magic uint32) string {
	return string(binary.BigEndian.AppendUint32(nil, magic))
}
