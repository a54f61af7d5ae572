package netflow

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/hifind/hifind/internal/telemetry"
)

// Collector receives NetFlow v5 export datagrams over UDP — the transport
// real routers use — and hands every decoded record to a handler. This is
// the live-deployment face of the package: point the router's
// `ip flow-export destination` at the collector, feed the records into a
// hifind detector, and the paper's §5.1 on-site setup is reproduced.
//
// The handler runs on the collector's single receive goroutine, so it may
// safely touch non-thread-safe state (such as a Recorder) but must return
// promptly; slow handlers drop datagrams at the socket, exactly like a
// slow physical collector.
type Collector struct {
	conn      *net.UDPConn
	handler   func(Record, Header)
	done      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once

	mu        sync.Mutex
	packets   int64
	records   int64
	malformed int64

	// Telemetry handles; all nil (no-op) without WithTelemetry.
	mDatagrams *telemetry.Counter
	mRecords   *telemetry.Counter
	mParseErrs *telemetry.Counter
	mLag       *telemetry.Gauge
}

// CollectorOption customizes Listen.
type CollectorOption func(*Collector)

// WithTelemetry registers the collector's netflow_* metric series on
// reg: datagrams received, records decoded, parse errors, and collector
// lag (local wall clock minus the exporter's header timestamp, in
// seconds — how far behind the router's export stream the collector
// runs).
func WithTelemetry(reg *telemetry.Registry) CollectorOption {
	return func(c *Collector) {
		c.mDatagrams = reg.Counter("netflow_datagrams_total",
			"NetFlow v5 export datagrams received")
		c.mRecords = reg.Counter("netflow_records_total",
			"flow records decoded from export datagrams")
		c.mParseErrs = reg.Counter("netflow_parse_errors_total",
			"datagrams dropped as malformed (truncated, bad version, short records)")
		c.mLag = reg.Gauge("netflow_collector_lag_seconds",
			"local receive time minus exporter header timestamp")
	}
}

// Listen binds a UDP socket (addr like "127.0.0.1:2055"; use port 0 for
// tests) and starts receiving. Options (such as WithTelemetry) apply
// before the first datagram is read.
func Listen(addr string, handler func(Record, Header), opts ...CollectorOption) (*Collector, error) {
	if handler == nil {
		return nil, fmt.Errorf("netflow: nil handler")
	}
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("netflow: resolve %s: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("netflow: listen %s: %w", addr, err)
	}
	c := &Collector{conn: conn, handler: handler, done: make(chan struct{})}
	for _, o := range opts {
		o(c)
	}
	c.wg.Add(1)
	go c.receiveLoop()
	return c, nil
}

// Addr returns the bound address for exporters to send to.
func (c *Collector) Addr() string { return c.conn.LocalAddr().String() }

func (c *Collector) receiveLoop() {
	defer c.wg.Done()
	// A datagram longer than the largest legal frame is cut to it, which
	// decodes exactly as the whole datagram would: Unmarshal reads no
	// further than the records the header counts, at most 30.
	buf := make([]byte, maxFrameLen)
	recs := make([]Record, 0, MaxRecordsPerPacket)
	for {
		n, _, err := c.conn.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-c.done:
				return // Close was called
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue // transient receive error; keep collecting
		}
		hdr, records, err := Unmarshal(buf[:n], recs[:0])
		c.mu.Lock()
		c.packets++
		c.mDatagrams.Inc()
		if err != nil {
			c.malformed++
			c.mParseErrs.Inc()
			c.mu.Unlock()
			continue
		}
		c.records += int64(len(records))
		c.mRecords.Add(int64(len(records)))
		c.mu.Unlock()
		if c.mLag != nil && hdr.UnixSecs != 0 {
			c.mLag.Set(time.Since(time.Unix(int64(hdr.UnixSecs), 0)).Seconds())
		}
		for _, r := range records {
			c.handler(r, hdr)
		}
	}
}

// Stats reports datagrams received, records decoded, and malformed
// datagrams dropped.
func (c *Collector) Stats() (packets, records, malformed int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.packets, c.records, c.malformed
}

// Close stops the receive loop and waits for it to exit.
func (c *Collector) Close() error {
	var err error
	c.closeOnce.Do(func() {
		close(c.done)
		err = c.conn.Close()
		c.wg.Wait()
	})
	return err
}

// Exporter sends flow records to a collector as v5 UDP datagrams, for
// tests and for replaying stored traces into a live pipeline.
type Exporter struct {
	conn     *net.UDPConn
	pending  []Record
	sequence uint32
	uptimeMs uint32
	unixSecs uint32
}

// NewExporter dials the collector.
func NewExporter(addr string) (*Exporter, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("netflow: resolve %s: %w", addr, err)
	}
	conn, err := net.DialUDP("udp", nil, udpAddr)
	if err != nil {
		return nil, fmt.Errorf("netflow: dial %s: %w", addr, err)
	}
	return &Exporter{conn: conn, pending: make([]Record, 0, MaxRecordsPerPacket)}, nil
}

// SetClock updates the header clock fields used for subsequent exports.
func (e *Exporter) SetClock(uptimeMs, unixSecs uint32) {
	e.uptimeMs, e.unixSecs = uptimeMs, unixSecs
}

// Add buffers a record, exporting a full datagram when 30 accumulate.
func (e *Exporter) Add(rec Record) error {
	e.pending = append(e.pending, rec)
	if len(e.pending) == MaxRecordsPerPacket {
		return e.Flush()
	}
	return nil
}

// Flush exports buffered records immediately.
func (e *Exporter) Flush() error {
	if len(e.pending) == 0 {
		return nil
	}
	pkt, err := Marshal(Header{
		SysUptimeMs:  e.uptimeMs,
		UnixSecs:     e.unixSecs,
		FlowSequence: e.sequence,
	}, e.pending)
	if err != nil {
		return err
	}
	if _, err := e.conn.Write(pkt); err != nil {
		return fmt.Errorf("netflow: export: %w", err)
	}
	e.sequence += uint32(len(e.pending))
	e.pending = e.pending[:0]
	return nil
}

// Close flushes and closes the socket.
func (e *Exporter) Close() error {
	flushErr := e.Flush()
	closeErr := e.conn.Close()
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}
