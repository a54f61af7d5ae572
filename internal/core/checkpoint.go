package core

import (
	"encoding/binary"
	"fmt"
	"sort"

	"github.com/hifind/hifind/internal/netmodel"
)

// Detector checkpointing: an IDS restarting at 3am must not spend its
// first intervals re-learning forecasts (and must not forget which
// services were active, or it would re-alert on every ongoing
// misconfiguration). MarshalState captures everything that survives an
// interval boundary — the EWMA forecasters, the active-service memory,
// the flooding persistence streaks and the block-scanner memory — and
// RestoreState loads it into a freshly constructed detector with the same
// configuration. Call both only at interval boundaries: in-progress
// interval counters are deliberately not part of the state (they are
// reset at every boundary anyway).

const checkpointMagic = uint32(0x48694350) // "HiCP"

// MarshalState serializes the detector's cross-interval state.
func (d *Detector) MarshalState() ([]byte, error) {
	blocks := make([][]byte, 0, 2*numLanes+4)
	// Every lane's reversible-sketch forecaster, then every lane's
	// verifier forecaster.
	for k := range 2 {
		for _, l := range d.lanes {
			b, err := l.fc[k].MarshalBinary()
			if err != nil {
				return nil, fmt.Errorf("core: checkpoint forecaster: %w", err)
			}
			blocks = append(blocks, b)
		}
	}
	svc, err := d.rec.Services.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint services: %w", err)
	}
	blocks = append(blocks, svc)
	blocks = append(blocks, marshalIPMap(d.streaks))
	blocks = append(blocks, marshalAddrMap(d.blockScanners))
	if d.persist != nil {
		// Persistence streaks span interval boundaries by definition; a
		// restart must not reset a stealth scanner's streak to zero. The
		// block exists only when the detector is configured with
		// PersistScan.
		pb, err := d.persist.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("core: checkpoint persistence tracker: %w", err)
		}
		blocks = append(blocks, pb)
	}

	size := 12
	for _, b := range blocks {
		size += 4 + len(b)
	}
	out := make([]byte, 0, size)
	out = binary.LittleEndian.AppendUint32(out, checkpointMagic)
	out = binary.LittleEndian.AppendUint64(out, uint64(d.interval))
	for _, b := range blocks {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(b)))
		out = append(out, b...)
	}
	return out, nil
}

// RestoreState loads state serialized by MarshalState. The detector must
// have been built with the same recorder and detector configurations.
func (d *Detector) RestoreState(data []byte) error {
	if len(data) < 12 {
		return fmt.Errorf("core: checkpoint truncated")
	}
	if binary.LittleEndian.Uint32(data) != checkpointMagic {
		return fmt.Errorf("core: checkpoint bad magic")
	}
	interval := int(binary.LittleEndian.Uint64(data[4:]))
	data = data[12:]
	next := func() ([]byte, error) {
		if len(data) < 4 {
			return nil, fmt.Errorf("core: checkpoint block header missing")
		}
		n := int(binary.LittleEndian.Uint32(data))
		data = data[4:]
		if len(data) < n {
			return nil, fmt.Errorf("core: checkpoint block truncated")
		}
		b := data[:n]
		data = data[n:]
		return b, nil
	}
	for k := range 2 {
		for i, l := range d.lanes {
			b, err := next()
			if err != nil {
				return err
			}
			if err := l.fc[k].UnmarshalBinary(b); err != nil {
				return fmt.Errorf("core: checkpoint forecaster %d: %w", k*numLanes+i, err)
			}
		}
	}
	b, err := next()
	if err != nil {
		return err
	}
	if err := d.rec.Services.UnmarshalBinary(b); err != nil {
		return fmt.Errorf("core: checkpoint services: %w", err)
	}
	if b, err = next(); err != nil {
		return err
	}
	streaks, err := unmarshalIPMap(b)
	if err != nil {
		return fmt.Errorf("core: checkpoint streaks: %w", err)
	}
	d.streaks = streaks
	if b, err = next(); err != nil {
		return err
	}
	scanners, err := unmarshalAddrMap(b)
	if err != nil {
		return fmt.Errorf("core: checkpoint block scanners: %w", err)
	}
	d.blockScanners = scanners
	if d.persist != nil {
		if b, err = next(); err != nil {
			return err
		}
		if err := d.persist.UnmarshalBinary(b); err != nil {
			return fmt.Errorf("core: checkpoint persistence tracker: %w", err)
		}
	}
	if len(data) != 0 {
		return fmt.Errorf("core: %d trailing checkpoint bytes", len(data))
	}
	d.interval = interval
	return nil
}

// marshalIPMap serializes in sorted key order: checkpoints taken from
// identical state must be byte-identical across runs and routers.
func marshalIPMap(m map[uint64]int) []byte {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]byte, 0, 4+12*len(m))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(m)))
	for _, k := range keys {
		out = binary.LittleEndian.AppendUint64(out, k)
		out = binary.LittleEndian.AppendUint32(out, uint32(m[k]))
	}
	return out
}

func unmarshalIPMap(data []byte) (map[uint64]int, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("map header missing")
	}
	n := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	if len(data) != 12*n {
		return nil, fmt.Errorf("map body %d bytes for %d entries", len(data), n)
	}
	m := make(map[uint64]int, n)
	for i := 0; i < n; i++ {
		k := binary.LittleEndian.Uint64(data[12*i:])
		v := int(binary.LittleEndian.Uint32(data[12*i+8:]))
		m[k] = v
	}
	return m, nil
}

// marshalAddrMap serializes in sorted key order, for the same
// byte-stability contract as marshalIPMap.
func marshalAddrMap(m map[netmodel.IPv4]int) []byte {
	keys := make([]netmodel.IPv4, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]byte, 0, 4+8*len(m))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(m)))
	for _, k := range keys {
		out = binary.LittleEndian.AppendUint32(out, uint32(k))
		out = binary.LittleEndian.AppendUint32(out, uint32(m[k]))
	}
	return out
}

func unmarshalAddrMap(data []byte) (map[netmodel.IPv4]int, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("map header missing")
	}
	n := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	if len(data) != 8*n {
		return nil, fmt.Errorf("map body %d bytes for %d entries", len(data), n)
	}
	m := make(map[netmodel.IPv4]int, n)
	for i := 0; i < n; i++ {
		k := netmodel.IPv4(binary.LittleEndian.Uint32(data[8*i:]))
		v := int(binary.LittleEndian.Uint32(data[8*i+4:]))
		m[k] = v
	}
	return m, nil
}
