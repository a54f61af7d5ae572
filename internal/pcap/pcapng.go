package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/hifind/hifind/internal/netmodel"
)

// pcapng support: modern tooling (Wireshark, tcpdump on many systems)
// writes the next-generation format by default, so a detector meant for
// downstream adoption has to read it. NGReader implements the subset a
// packet consumer needs — section header, interface description, enhanced
// and simple packet blocks — and skips everything else, per the format's
// "skip what you don't know" design.

// pcapng block type codes.
const (
	blockSHB = 0x0A0D0D0A // section header
	blockIDB = 0x00000001 // interface description
	blockSPB = 0x00000003 // simple packet
	blockEPB = 0x00000006 // enhanced packet

	byteOrderMagic = 0x1A2B3C4D
	maxBlockLen    = 16 << 20
)

// ngInterface is the per-interface state from an IDB.
type ngInterface struct {
	linkType uint16
	// tsPerSec is the timestamp resolution in units per second
	// (if_tsresol option; default 10^6).
	tsPerSec uint64
}

// NGReader streams TCP packet events from a pcapng capture. Like Reader,
// non-TCP frames and frames that do not cross the edge are skipped.
type NGReader struct {
	r       io.Reader
	order   binary.ByteOrder
	edge    *netmodel.EdgeNetwork
	ifaces  []ngInterface
	skipped int
}

// NewNGReader parses the leading section header and prepares to stream.
func NewNGReader(r io.Reader, edge *netmodel.EdgeNetwork) (*NGReader, error) {
	nr := &NGReader{r: r, edge: edge}
	blockType, body, err := nr.readBlockHeaderless()
	if err != nil {
		return nil, fmt.Errorf("pcapng: section header: %w", err)
	}
	if blockType != blockSHB {
		return nil, fmt.Errorf("pcapng: first block type %#x is not a section header", blockType)
	}
	if err := nr.parseSHB(body); err != nil {
		return nil, err
	}
	return nr, nil
}

// readBlockHeaderless reads one block before the byte order is known (the
// SHB): the byte-order magic inside the body disambiguates the length
// field.
func (nr *NGReader) readBlockHeaderless() (uint32, []byte, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(nr.r, hdr[:]); err != nil {
		return 0, nil, err
	}
	blockType := binary.LittleEndian.Uint32(hdr[0:])
	if blockType != blockSHB && binary.BigEndian.Uint32(hdr[0:]) != blockSHB {
		return blockType, nil, nil
	}
	switch binary.LittleEndian.Uint32(hdr[8:]) {
	case byteOrderMagic:
		nr.order = binary.LittleEndian
	default:
		if binary.BigEndian.Uint32(hdr[8:]) != byteOrderMagic {
			return 0, nil, fmt.Errorf("bad byte-order magic %#x", binary.LittleEndian.Uint32(hdr[8:]))
		}
		nr.order = binary.BigEndian
	}
	total := nr.order.Uint32(hdr[4:])
	if total < 28 || total > maxBlockLen || total%4 != 0 {
		return 0, nil, fmt.Errorf("implausible SHB length %d", total)
	}
	rest := make([]byte, total-12)
	if _, err := io.ReadFull(nr.r, rest); err != nil {
		return 0, nil, err
	}
	// body excludes the trailing total-length copy; keep the magic word.
	return blockSHB, append(hdr[8:12:12], rest[:len(rest)-4]...), nil
}

func (nr *NGReader) parseSHB(body []byte) error {
	if len(body) < 4 {
		return fmt.Errorf("pcapng: SHB body truncated")
	}
	nr.ifaces = nr.ifaces[:0] // a new section resets interface numbering
	return nil
}

// readBlock reads one block after byte order is established.
func (nr *NGReader) readBlock() (uint32, []byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(nr.r, hdr[:]); err != nil {
		return 0, nil, err // io.EOF passes through
	}
	blockType := nr.order.Uint32(hdr[0:])
	total := nr.order.Uint32(hdr[4:])
	if total < 12 || total > maxBlockLen || total%4 != 0 {
		return 0, nil, fmt.Errorf("pcapng: implausible block length %d", total)
	}
	body := make([]byte, total-8)
	if _, err := io.ReadFull(nr.r, body); err != nil {
		if err == io.EOF {
			// A capture cut after a block header is truncated, not ended.
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, fmt.Errorf("pcapng: block body: %w", err)
	}
	trailer := nr.order.Uint32(body[len(body)-4:])
	if trailer != total {
		return 0, nil, fmt.Errorf("pcapng: trailing length %d != %d", trailer, total)
	}
	return blockType, body[:len(body)-4], nil
}

// parseIDB registers an interface.
func (nr *NGReader) parseIDB(body []byte) error {
	if len(body) < 8 {
		return fmt.Errorf("pcapng: IDB truncated")
	}
	iface := ngInterface{
		linkType: nr.order.Uint16(body[0:]),
		tsPerSec: 1_000_000,
	}
	// Options start at offset 8: code(2) len(2) value(padded to 4).
	opts := body[8:]
	for len(opts) >= 4 {
		code := nr.order.Uint16(opts[0:])
		olen := int(nr.order.Uint16(opts[2:]))
		opts = opts[4:]
		if olen > len(opts) {
			break // malformed options: keep defaults
		}
		if code == 9 && olen >= 1 { // if_tsresol
			v := opts[0]
			if v&0x80 == 0 { // power of 10
				iface.tsPerSec = 1
				for i := byte(0); i < v && i < 19; i++ {
					iface.tsPerSec *= 10
				}
			} else { // power of 2
				iface.tsPerSec = 1 << (v & 0x7f)
			}
		}
		opts = opts[(olen+3)&^3:]
		if code == 0 { // opt_endofopt
			break
		}
	}
	nr.ifaces = append(nr.ifaces, iface)
	return nil
}

// Skipped reports frames dropped (non-TCP, unknown interface, non-edge).
func (nr *NGReader) Skipped() int { return nr.skipped }

// Next returns the next TCP packet event, or io.EOF at end of capture.
func (nr *NGReader) Next() (netmodel.Packet, error) {
	for {
		blockType, body, err := nr.readBlock()
		if errors.Is(err, io.EOF) {
			return netmodel.Packet{}, io.EOF
		}
		if err != nil {
			return netmodel.Packet{}, err
		}
		switch blockType {
		case blockSHB:
			if err := nr.parseSHB(body); err != nil {
				return netmodel.Packet{}, err
			}
		case blockIDB:
			if err := nr.parseIDB(body); err != nil {
				return netmodel.Packet{}, err
			}
		case blockEPB:
			pkt, ok, err := nr.parseEPB(body)
			if err != nil {
				return netmodel.Packet{}, err
			}
			if ok {
				return pkt, nil
			}
		case blockSPB:
			pkt, ok := nr.parseSPB(body)
			if ok {
				return pkt, nil
			}
		default:
			// Name resolution, statistics, custom blocks: skip.
		}
	}
}

func (nr *NGReader) parseEPB(body []byte) (netmodel.Packet, bool, error) {
	if len(body) < 20 {
		return netmodel.Packet{}, false, fmt.Errorf("pcapng: EPB truncated")
	}
	ifID := int(nr.order.Uint32(body[0:]))
	if ifID >= len(nr.ifaces) {
		nr.skipped++
		return netmodel.Packet{}, false, nil
	}
	iface := nr.ifaces[ifID]
	ts := uint64(nr.order.Uint32(body[4:]))<<32 | uint64(nr.order.Uint32(body[8:]))
	capLen := int(nr.order.Uint32(body[12:]))
	origLen := int(nr.order.Uint32(body[16:]))
	if capLen < 0 || 20+capLen > len(body) {
		return netmodel.Packet{}, false, fmt.Errorf("pcapng: EPB captured length %d overruns block", capLen)
	}
	if iface.linkType != linkTypeEthernet {
		nr.skipped++
		return netmodel.Packet{}, false, nil
	}
	pkt, err := DecodeEthernet(body[20 : 20+capLen])
	if err != nil {
		nr.skipped++
		return netmodel.Packet{}, false, nil
	}
	sec := ts / iface.tsPerSec
	frac := ts % iface.tsPerSec
	pkt.Timestamp = time.Unix(int64(sec), int64(frac*uint64(time.Second)/iface.tsPerSec)).UTC()
	pkt.Wire = origLen
	if !nr.classify(&pkt) {
		return netmodel.Packet{}, false, nil
	}
	return pkt, true, nil
}

func (nr *NGReader) parseSPB(body []byte) (netmodel.Packet, bool) {
	if len(body) < 4 || len(nr.ifaces) == 0 || nr.ifaces[0].linkType != linkTypeEthernet {
		nr.skipped++
		return netmodel.Packet{}, false
	}
	origLen := int(nr.order.Uint32(body[0:]))
	data := body[4:]
	if origLen < len(data) {
		data = data[:origLen]
	}
	pkt, err := DecodeEthernet(data)
	if err != nil {
		nr.skipped++
		return netmodel.Packet{}, false
	}
	pkt.Wire = origLen
	if !nr.classify(&pkt) {
		return netmodel.Packet{}, false
	}
	return pkt, true
}

func (nr *NGReader) classify(pkt *netmodel.Packet) bool {
	if nr.edge == nil {
		pkt.Dir = netmodel.Inbound
		return true
	}
	dir, ok := nr.edge.Classify(pkt.SrcIP, pkt.DstIP)
	if !ok {
		nr.skipped++
		return false
	}
	pkt.Dir = dir
	return true
}

// PacketSource abstracts the two capture formats for replay loops.
type PacketSource interface {
	Next() (netmodel.Packet, error)
	Skipped() int
}

var (
	_ PacketSource = (*Reader)(nil)
	_ PacketSource = (*NGReader)(nil)
)

// OpenReader sniffs the capture format (classic pcap vs pcapng) from the
// first four bytes and returns the matching reader.
func OpenReader(r io.Reader, edge *netmodel.EdgeNetwork) (PacketSource, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("pcap: read magic: %w", err)
	}
	joined := io.MultiReader(bytes.NewReader(magic[:]), r)
	if binary.LittleEndian.Uint32(magic[:]) == blockSHB {
		return NewNGReader(joined, edge)
	}
	return NewReader(joined, edge)
}

// NGWriter writes a pcapng capture of synthesized Ethernet/IPv4/TCP
// frames: one section, one Ethernet interface at microsecond resolution,
// one enhanced packet block per packet. Wireshark and tcpdump read the
// output directly.
type NGWriter struct {
	w        io.Writer
	wroteHdr bool
	frameBuf bytes.Buffer
}

// NewNGWriter wraps w; the section and interface headers are emitted
// lazily on the first packet.
func NewNGWriter(w io.Writer) *NGWriter {
	return &NGWriter{w: w}
}

// writeBlock frames one pcapng block (padding the body to 4 bytes).
func (nw *NGWriter) writeBlock(blockType uint32, body []byte) error {
	pad := (4 - len(body)%4) % 4
	total := uint32(12 + len(body) + pad)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], blockType)
	binary.LittleEndian.PutUint32(hdr[4:], total)
	if _, err := nw.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := nw.w.Write(body); err != nil {
		return err
	}
	var tail [8]byte // up to 3 pad bytes + 4 length bytes
	binary.LittleEndian.PutUint32(tail[pad:], total)
	_, err := nw.w.Write(tail[:pad+4])
	return err
}

func (nw *NGWriter) writeHeaders() error {
	shb := make([]byte, 16)
	binary.LittleEndian.PutUint32(shb[0:], byteOrderMagic)
	binary.LittleEndian.PutUint16(shb[4:], 1)          // major
	binary.LittleEndian.PutUint64(shb[8:], ^uint64(0)) // unknown section length
	if err := nw.writeBlock(blockSHB, shb); err != nil {
		return err
	}
	idb := make([]byte, 8)
	binary.LittleEndian.PutUint16(idb[0:], linkTypeEthernet)
	binary.LittleEndian.PutUint32(idb[4:], 65535) // snaplen
	return nw.writeBlock(blockIDB, idb)
}

// WritePacket appends one packet as an enhanced packet block.
func (nw *NGWriter) WritePacket(pkt netmodel.Packet) error {
	if !nw.wroteHdr {
		if err := nw.writeHeaders(); err != nil {
			return fmt.Errorf("pcapng: headers: %w", err)
		}
		nw.wroteHdr = true
	}
	// Reuse the classic writer's frame synthesis.
	nw.frameBuf.Reset()
	cw := NewWriter(&nw.frameBuf)
	if err := cw.WritePacket(pkt); err != nil {
		return err
	}
	frame := nw.frameBuf.Bytes()[globalHeaderLen+packetHeaderLen:]
	ts := uint64(pkt.Timestamp.UnixMicro())
	origLen := len(frame)
	if pkt.Wire > origLen {
		origLen = pkt.Wire
	}
	body := make([]byte, 20, 20+len(frame))
	binary.LittleEndian.PutUint32(body[0:], 0) // interface 0
	binary.LittleEndian.PutUint32(body[4:], uint32(ts>>32))
	binary.LittleEndian.PutUint32(body[8:], uint32(ts))
	binary.LittleEndian.PutUint32(body[12:], uint32(len(frame)))
	binary.LittleEndian.PutUint32(body[16:], uint32(origLen))
	body = append(body, frame...)
	return nw.writeBlock(blockEPB, body)
}
