package aggregate

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hifind/hifind/internal/core"
	"github.com/hifind/hifind/internal/telemetry"
)

// ErrNoFrames reports an epoch whose deadline passed before any router's
// frame arrived: there is nothing to merge. Callers running a wall-clock
// epoch loop treat it as a fully missed interval and keep going.
var ErrNoFrames = errors.New("aggregate: no router reported in time")

// maxPendingEpochs bounds how many future epochs the collector buffers
// frames for. Routers run at most one interval ahead of the collector in
// a healthy deployment; eight absorbs deep reconnect backlogs while
// keeping a hostile or runaway router from growing memory without bound.
const maxPendingEpochs = 8

// helloWriteTimeout bounds the resync hello written to every accepted
// connection; a peer that won't even drain 30 bytes is dead.
const helloWriteTimeout = 5 * time.Second

// Collector is the central aggregation site: it accepts router
// connections (including reconnects — the router population is dynamic),
// reads CRC-checked frames, and merges one epoch at a time by sketch
// linearity. On every accepted connection it first writes a hello frame
// carrying the lowest epoch it will still merge, so reconnecting routers
// can prune spill buffers instead of re-sending reports that would be
// discarded as stale.
//
// Frame handling is epoch-relative: frames for the epoch being collected
// merge (first frame per router wins; duplicates from at-least-once
// resends are counted and ignored), frames for future epochs are
// buffered, frames for closed epochs are counted and dropped, and
// corrupt frames cost one report, not the connection (see Decoder).
//
// CollectEpoch must be called from a single goroutine. Lifetime is
// explicit: NewCollector starts listening, Close stops the accept loop,
// tears down every router connection, and waits for all goroutines.
type Collector struct {
	routers   int
	ln        net.Listener
	frames    chan Frame
	errs      chan error
	done      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
	epoch     atomic.Uint64 // epoch currently being collected (hello value)
	observer  func(router uint32, epoch uint64)

	// pending buffers frames for epochs ahead of the one being
	// collected; touched only by the CollectEpoch goroutine.
	pending map[uint64]*epochBuf

	// Telemetry handles; all nil (no-op) without WithTelemetry. The
	// counters are internally atomic, not mutex-guarded.
	mReporting  *telemetry.Gauge
	mCombine    *telemetry.Histogram
	mMissed     *telemetry.Counter
	mPartial    *telemetry.Counter
	mReconnects *telemetry.Counter
	mCorrupt    *telemetry.Counter
	mStale      *telemetry.Counter
	mDuplicate  *telemetry.Counter

	mu      sync.Mutex
	closing bool
	conns   map[net.Conn]struct{}
	known   map[uint32]bool // router ids that have reported at least once
}

// epochBuf gathers one epoch's frames.
type epochBuf struct {
	payloads [][]byte
	routers  []uint32
	seen     map[uint32]bool
}

func newEpochBuf() *epochBuf { return &epochBuf{seen: make(map[uint32]bool)} }

func (b *epochBuf) add(f Frame) bool {
	if b.seen[f.Router] {
		return false
	}
	b.seen[f.Router] = true
	b.payloads = append(b.payloads, f.Payload)
	b.routers = append(b.routers, f.Router)
	return true
}

// EpochInfo describes how one epoch's merge closed.
type EpochInfo struct {
	Epoch uint64
	// Contributors lists the router ids whose frames were merged, in
	// arrival order.
	Contributors []uint32
	// Partial marks an epoch closed at the deadline with at least one
	// expected router missing.
	Partial bool
}

// CollectorOption customizes NewCollector.
type CollectorOption func(*Collector)

// WithTelemetry registers the aggregation site's aggregate_* metric
// series on reg: routers contributing per interval, COMBINE latency,
// deadline misses, partial intervals, router reconnects, and corrupt /
// stale / duplicate frame counts.
func WithTelemetry(reg *telemetry.Registry) CollectorOption {
	return func(c *Collector) {
		c.mReporting = reg.Gauge("aggregate_routers_reporting",
			"routers whose frames contributed to the last merged interval")
		c.mCombine = reg.Histogram("aggregate_combine_seconds",
			"latency of merging per-router payloads (COMBINE)", telemetry.DefBuckets)
		c.mMissed = reg.Counter("aggregate_missed_deadline_intervals_total",
			"intervals whose deadline fired with at least one router missing")
		c.mPartial = reg.Counter("aggregate_partial_intervals_total",
			"intervals merged from a strict subset of the expected routers")
		c.mReconnects = reg.Counter("aggregate_reconnects_total",
			"router connections re-established after an earlier report")
		c.mCorrupt = reg.Counter("aggregate_corrupt_frames_total",
			"frames dropped by CRC or framing corruption (skip-and-count)")
		c.mStale = reg.Counter("aggregate_stale_frames_total",
			"frames discarded for already-closed epochs or overflowing the future-epoch buffer")
		c.mDuplicate = reg.Counter("aggregate_duplicate_frames_total",
			"frames ignored because the router already reported the epoch")
	}
}

// WithFrameObserver registers fn to run (on the CollectEpoch goroutine)
// for every frame accepted into the current or a buffered future epoch.
// Deterministic fault tests use it to sequence deadline decisions on
// observed arrivals instead of sleeps.
func WithFrameObserver(fn func(router uint32, epoch uint64)) CollectorOption {
	return func(c *Collector) { c.observer = fn }
}

// NewCollector listens on addr ("127.0.0.1:0" for tests) and expects
// frames from `routers` distinct routers per epoch.
func NewCollector(routers int, addr string, opts ...CollectorOption) (*Collector, error) {
	if routers < 1 {
		return nil, fmt.Errorf("aggregate: collector for %d routers", routers)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("aggregate: listen: %w", err)
	}
	c := &Collector{
		routers: routers,
		ln:      ln,
		frames:  make(chan Frame, routers),
		errs:    make(chan error, 1),
		done:    make(chan struct{}),
		conns:   make(map[net.Conn]struct{}),
		known:   make(map[uint32]bool),
		pending: make(map[uint64]*epochBuf),
	}
	for _, o := range opts {
		o(c)
	}
	c.wg.Add(1)
	go c.acceptLoop()
	return c, nil
}

// Addr returns the listening address for routers to dial.
func (c *Collector) Addr() string { return c.ln.Addr().String() }

// register tracks an accepted connection for teardown; it refuses new
// connections once Close has begun so shutdown cannot race the accept
// loop into leaking a reader.
func (c *Collector) register(conn net.Conn) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closing {
		return false
	}
	c.conns[conn] = struct{}{}
	return true
}

func (c *Collector) unregister(conn net.Conn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.conns, conn)
}

// noteRouter records the first frame of a connection's router id and
// counts a reconnect when that router has reported before on another
// connection.
func (c *Collector) noteRouter(id uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.known[id] {
		c.mReconnects.Inc()
		return
	}
	c.known[id] = true
}

func (c *Collector) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			select {
			case <-c.done: // Close was called; quiet exit
			default:
				select {
				case c.errs <- fmt.Errorf("aggregate: accept: %w", err):
				default:
				}
			}
			return
		}
		if !c.register(conn) {
			//lint:ignore unchecked-close collector is shutting down; the refused peer sees a reset either way
			conn.Close()
			return
		}
		c.wg.Add(1)
		go c.readLoop(conn)
	}
}

func (c *Collector) readLoop(conn net.Conn) {
	defer c.wg.Done()
	defer c.unregister(conn)
	//lint:ignore unchecked-close read-side teardown; the stream already ended and a close error carries no signal
	defer conn.Close()

	// Resync hello: tell the router the lowest epoch still worth sending.
	_ = conn.SetWriteDeadline(time.Now().Add(helloWriteTimeout))
	if err := WriteFrame(conn, Frame{Flags: FlagHello, Epoch: c.epoch.Load()}); err != nil {
		return
	}
	_ = conn.SetWriteDeadline(time.Time{})

	dec := NewDecoder(conn)
	var counted int64
	routerKnown := false
	for {
		f, err := dec.Next()
		if delta := dec.Corrupt() - counted; delta > 0 {
			c.mCorrupt.Add(delta)
			counted = dec.Corrupt()
		}
		if err != nil {
			return // EOF, reset, or truncated tail; the frames that made it through stand
		}
		if f.IsHello() {
			continue // routers never send hellos; tolerate echoes
		}
		if !routerKnown {
			routerKnown = true
			c.noteRouter(f.Router)
		}
		select {
		case c.frames <- f:
		case <-c.done:
			return
		}
	}
}

// CollectEpoch blocks until every expected router has reported the given
// epoch, the deadline channel fires, or the collector closes, then adds
// the gathered payloads into `into` — typically the detector's own
// recorder, which EndInterval resets. On a deadline with at least one
// frame gathered it adds what arrived and flags the epoch Partial; with
// none it returns ErrNoFrames. Payloads are buffered as they arrive and
// added in one call when the epoch closes, so a payload that fails
// validation leaves `into` unchanged. A nil deadline waits indefinitely.
// Must be called from one goroutine, with epochs non-decreasing.
func (c *Collector) CollectEpoch(epoch uint64, deadline <-chan time.Time, into *core.Recorder) (EpochInfo, error) {
	c.epoch.Store(epoch)
	info := EpochInfo{Epoch: epoch}
	// Frames buffered for closed epochs can no longer merge; drop them.
	for e, b := range c.pending {
		if e < epoch {
			c.mStale.Add(int64(len(b.payloads)))
			delete(c.pending, e)
		}
	}
	buf, ok := c.pending[epoch]
	if ok {
		delete(c.pending, epoch)
	} else {
		buf = newEpochBuf()
	}
	for len(buf.seen) < c.routers {
		select {
		case f := <-c.frames:
			c.sortFrame(f, epoch, buf)
		case <-deadline:
			c.mMissed.Inc()
			c.epoch.Store(epoch + 1)
			if len(buf.payloads) == 0 {
				return info, fmt.Errorf("%w (epoch %d)", ErrNoFrames, epoch)
			}
			c.mPartial.Inc()
			info.Partial = true
			info.Contributors = buf.routers
			return info, c.merge(buf.payloads, into)
		case err := <-c.errs:
			return info, err
		case <-c.done:
			return info, fmt.Errorf("aggregate: collector closed")
		}
	}
	c.epoch.Store(epoch + 1)
	info.Contributors = buf.routers
	return info, c.merge(buf.payloads, into)
}

// sortFrame routes one frame relative to the epoch being collected.
func (c *Collector) sortFrame(f Frame, epoch uint64, buf *epochBuf) {
	switch {
	case f.Epoch == epoch:
		if !buf.add(f) {
			c.mDuplicate.Inc()
			return
		}
	case f.Epoch < epoch:
		c.mStale.Inc()
		return
	default: // future epoch: buffer, bounded
		b, ok := c.pending[f.Epoch]
		if !ok {
			if len(c.pending) >= maxPendingEpochs {
				c.mStale.Inc()
				return
			}
			b = newEpochBuf()
			c.pending[f.Epoch] = b
		}
		if !b.add(f) {
			c.mDuplicate.Inc()
			return
		}
	}
	if c.observer != nil {
		c.observer(f.Router, f.Epoch)
	}
}

// merge adds the gathered payloads into the caller's recorder, recording
// combine latency and the contributing-router gauge.
func (c *Collector) merge(payloads [][]byte, into *core.Recorder) error {
	start := time.Now()
	if err := into.AddBinary(payloads...); err != nil {
		return fmt.Errorf("aggregate: %w", err)
	}
	c.mCombine.Observe(time.Since(start).Seconds())
	c.mReporting.Set(float64(len(payloads)))
	return nil
}

// Close shuts the listener and every router connection down and waits
// for all goroutines to exit. Safe to call at any point in the
// collector's life, including before any router has connected.
func (c *Collector) Close() error {
	var err error
	c.closeOnce.Do(func() {
		c.mu.Lock()
		c.closing = true
		conns := make([]net.Conn, 0, len(c.conns))
		for conn := range c.conns {
			conns = append(conns, conn)
		}
		c.mu.Unlock()
		close(c.done)
		err = c.ln.Close()
		for _, conn := range conns {
			//lint:ignore unchecked-close teardown of a connection whose stream we are abandoning
			conn.Close()
		}
		c.wg.Wait()
	})
	return err
}
