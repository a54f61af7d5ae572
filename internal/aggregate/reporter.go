package aggregate

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hifind/hifind/internal/core"
	"github.com/hifind/hifind/internal/telemetry"
)

// Reporter defaults; all overridable per option.
const (
	defaultBackoffBase  = 100 * time.Millisecond
	defaultBackoffMax   = 10 * time.Second
	defaultWriteTimeout = 30 * time.Second
	defaultHelloTimeout = 10 * time.Second
	defaultSpillLimit   = 16
)

// Reporter is the router-side client of a Collector. Report enqueues an
// interval's serialized recorder state and returns immediately; a
// background loop owns the connection and delivers frames in order,
// reconnecting with seeded, jittered exponential backoff when the
// collector is unreachable or a write fails.
//
// Undelivered intervals wait in a bounded spill buffer (drop-oldest), so
// a router that loses its collector for a few intervals re-sends the
// missed reports after reconnecting — sketch linearity means a late
// frame merges exactly, as long as the collector still has the epoch
// open. On every (re)connect the reporter reads the collector's hello
// frame and prunes spilled reports older than the hello epoch: they
// could only be discarded as stale at the other end.
//
// Delivery is at-least-once: a write that fails mid-frame is retried on
// the next connection even though the collector may have received it
// (it cannot have — WriteFrame is a single write and the codec CRC
// rejects the truncated copy — but a duplicating network can still
// double a frame, which the collector counts and ignores).
type Reporter struct {
	id    uint32
	addr  string
	dial  func(addr string) (net.Conn, error)
	sleep func(d time.Duration) bool

	backoffBase  time.Duration
	backoffMax   time.Duration
	helloTimeout time.Duration
	spillLimit   int
	rng          *rand.Rand // jitter; loop goroutine only

	done chan struct{}
	wg   sync.WaitGroup

	// Plain atomic counters double the telemetry so tests without a
	// registry can still assert behavior.
	nReconnects atomic.Int64
	nSpillDrops atomic.Int64
	nStaleDrops atomic.Int64
	nSent       atomic.Int64

	mReconnects *telemetry.Counter
	mSpillDrops *telemetry.Counter
	mStaleDrops *telemetry.Counter
	mSent       *telemetry.Counter

	mu            sync.Mutex
	cond          *sync.Cond
	spill         []spillEntry
	closed        bool
	everConnected bool
}

type spillEntry struct {
	epoch   uint64
	payload []byte
	resend  bool
}

// ReporterOption customizes NewReporter.
type ReporterOption func(*Reporter)

// WithDialFunc replaces the dial function (default net.Dial "tcp").
// Fault tests inject a faultnet.Dialer here.
func WithDialFunc(dial func(addr string) (net.Conn, error)) ReporterOption {
	return func(r *Reporter) { r.dial = dial }
}

// WithSleepFunc replaces the backoff sleep. The function receives the
// computed backoff and returns false to abort (reporter closing).
// Deterministic tests gate reconnects on a channel instead of the clock.
func WithSleepFunc(sleep func(d time.Duration) bool) ReporterOption {
	return func(r *Reporter) { r.sleep = sleep }
}

// WithBackoff sets the exponential backoff's base and cap.
func WithBackoff(base, max time.Duration) ReporterOption {
	return func(r *Reporter) {
		if base > 0 {
			r.backoffBase = base
		}
		if max > 0 {
			r.backoffMax = max
		}
	}
}

// WithBackoffSeed seeds the backoff jitter (default: derived from the
// router id, so co-restarting routers don't thunder in phase).
func WithBackoffSeed(seed int64) ReporterOption {
	return func(r *Reporter) { r.rng = rand.New(rand.NewSource(seed)) }
}

// WithSpillLimit bounds the undelivered-interval buffer (default 16
// intervals; oldest dropped first).
func WithSpillLimit(n int) ReporterOption {
	return func(r *Reporter) {
		if n > 0 {
			r.spillLimit = n
		}
	}
}

// WithReporterTelemetry registers the router-side aggregate_reporter_*
// series on reg.
func WithReporterTelemetry(reg *telemetry.Registry) ReporterOption {
	return func(r *Reporter) {
		r.mReconnects = reg.Counter("aggregate_reporter_reconnects_total",
			"collector connections re-established after a failure")
		r.mSpillDrops = reg.Counter("aggregate_reporter_spill_dropped_total",
			"interval reports dropped because the spill buffer overflowed")
		r.mStaleDrops = reg.Counter("aggregate_reporter_stale_dropped_total",
			"spilled reports pruned because the collector's hello epoch passed them")
		r.mSent = reg.Counter("aggregate_reporter_frames_sent_total",
			"interval report frames delivered to the collector")
	}
}

// NewReporter starts a reporter for router id shipping to the collector
// at addr. The background loop connects lazily on the first Report.
func NewReporter(id uint32, addr string, opts ...ReporterOption) *Reporter {
	r := &Reporter{
		id:           id,
		addr:         addr,
		backoffBase:  defaultBackoffBase,
		backoffMax:   defaultBackoffMax,
		helloTimeout: defaultHelloTimeout,
		spillLimit:   defaultSpillLimit,
		done:         make(chan struct{}),
	}
	for _, o := range opts {
		o(r)
	}
	if r.rng == nil {
		r.rng = rand.New(rand.NewSource(int64(id) + 1))
	}
	if r.dial == nil {
		r.dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	if r.sleep == nil {
		r.sleep = func(d time.Duration) bool {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return true
			case <-r.done:
				return false
			}
		}
	}
	r.cond = sync.NewCond(&r.mu)
	r.wg.Add(1)
	go r.loop()
	return r
}

// Report serializes rec and enqueues it for the given epoch.
func (r *Reporter) Report(epoch uint64, rec *core.Recorder) error {
	payload, err := rec.MarshalBinary()
	if err != nil {
		return fmt.Errorf("aggregate: reporter marshal: %w", err)
	}
	return r.ReportPayload(epoch, payload)
}

// ReportPayload enqueues an already-serialized recorder state. It never
// blocks on the network; when the buffer is full the oldest undelivered
// report is dropped (and counted) in favor of the new one — fresh
// intervals are worth more than stale ones.
func (r *Reporter) ReportPayload(epoch uint64, payload []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("aggregate: reporter closed")
	}
	r.spill = append(r.spill, spillEntry{epoch: epoch, payload: payload})
	for len(r.spill) > r.spillLimit {
		r.spill = r.spill[1:]
		r.nSpillDrops.Add(1)
		r.mSpillDrops.Inc()
	}
	r.cond.Signal()
	return nil
}

// Reconnects returns how many times the reporter re-established a
// connection after having delivered on an earlier one.
func (r *Reporter) Reconnects() int64 { return r.nReconnects.Load() }

// SpillDropped returns how many reports the bounded buffer evicted.
func (r *Reporter) SpillDropped() int64 { return r.nSpillDrops.Load() }

// StaleDropped returns how many spilled reports hello-pruning removed.
func (r *Reporter) StaleDropped() int64 { return r.nStaleDrops.Load() }

// Sent returns how many frames were delivered.
func (r *Reporter) Sent() int64 { return r.nSent.Load() }

// Pending returns how many reports wait undelivered.
func (r *Reporter) Pending() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spill)
}

// Close stops the background loop. Undelivered spill is abandoned —
// shutdown is deterministic, not best-effort-flushing.
func (r *Reporter) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.cond.Broadcast()
	r.mu.Unlock()
	close(r.done)
	r.wg.Wait()
	return nil
}

// waitPending blocks until there is something to send; false means the
// reporter closed.
func (r *Reporter) waitPending() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.spill) == 0 && !r.closed {
		r.cond.Wait()
	}
	return !r.closed
}

// head copies the oldest undelivered entry.
func (r *Reporter) head() (spillEntry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spill) == 0 {
		return spillEntry{}, false
	}
	return r.spill[0], true
}

// pop removes the head if it is still the entry that was sent (overflow
// may have evicted it mid-write, which is fine — it is gone either way).
func (r *Reporter) pop(sent spillEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spill) > 0 && r.spill[0].epoch == sent.epoch {
		r.spill = r.spill[1:]
	}
}

// markResendAll flags every queued entry as a resend (observability on
// the wire) after a connection failure.
func (r *Reporter) markResendAll() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.spill {
		r.spill[i].resend = true
	}
}

// pruneStale drops queued entries older than the collector's hello
// epoch: the collector would only count them stale.
func (r *Reporter) pruneStale(helloEpoch uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	kept := r.spill[:0]
	for _, e := range r.spill {
		if e.epoch < helloEpoch {
			r.nStaleDrops.Add(1)
			r.mStaleDrops.Inc()
			continue
		}
		kept = append(kept, e)
	}
	r.spill = kept
}

func (r *Reporter) isClosed() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// loop owns the connection: connect (with backoff), drain the spill
// queue, reconnect on failure.
func (r *Reporter) loop() {
	defer r.wg.Done()
	var conn net.Conn
	defer func() {
		if conn != nil {
			//lint:ignore unchecked-close reporter teardown; the collector sees EOF either way
			conn.Close()
		}
	}()
	attempt := 0
	for {
		if !r.waitPending() {
			return
		}
		if conn == nil {
			conn = r.connect(&attempt)
			if conn == nil {
				return // closed while connecting
			}
		}
		e, ok := r.head()
		if !ok {
			continue // hello-pruned while connecting
		}
		f := Frame{Router: r.id, Epoch: e.epoch, Payload: e.payload}
		if e.resend {
			f.Flags |= FlagResend
		}
		_ = conn.SetWriteDeadline(time.Now().Add(defaultWriteTimeout))
		if err := WriteFrame(conn, f); err != nil {
			//lint:ignore unchecked-close the write already failed; the conn is being abandoned
			conn.Close()
			conn = nil
			r.markResendAll()
			continue
		}
		r.pop(e)
		r.nSent.Add(1)
		r.mSent.Inc()
		attempt = 0
	}
}

// connect dials until a connection completes its hello handshake or the
// reporter closes (nil). Backoff is exponential with jitter in
// [d/2, d): the retry storm after a collector restart spreads out
// instead of synchronizing.
func (r *Reporter) connect(attempt *int) net.Conn {
	for {
		if r.isClosed() {
			return nil
		}
		conn, err := r.dial(r.addr)
		if err == nil {
			if herr := r.handshake(conn); herr == nil {
				r.mu.Lock()
				if r.everConnected {
					r.nReconnects.Add(1)
					r.mReconnects.Inc()
				}
				r.everConnected = true
				r.mu.Unlock()
				*attempt = 0
				return conn
			}
			//lint:ignore unchecked-close handshake failed; the conn is useless
			conn.Close()
		}
		d := r.backoff(*attempt)
		*attempt++
		if !r.sleep(d) {
			return nil
		}
	}
}

// handshake reads the collector's hello and prunes the spill queue to
// the epochs it will still merge.
func (r *Reporter) handshake(conn net.Conn) error {
	_ = conn.SetReadDeadline(time.Now().Add(r.helloTimeout))
	defer func() { _ = conn.SetReadDeadline(time.Time{}) }()
	// The collector writes exactly one frame before going read-only, so a
	// throwaway decoder cannot buffer past the hello.
	f, err := NewDecoder(conn).Next()
	if err != nil {
		return fmt.Errorf("aggregate: reporter hello: %w", err)
	}
	if !f.IsHello() {
		return fmt.Errorf("aggregate: reporter hello: unexpected frame flags %#x", f.Flags)
	}
	r.pruneStale(f.Epoch)
	return nil
}

// backoff computes the jittered exponential delay for the given attempt.
func (r *Reporter) backoff(attempt int) time.Duration {
	d := r.backoffBase
	for i := 0; i < attempt && d < r.backoffMax; i++ {
		d *= 2
	}
	if d > r.backoffMax {
		d = r.backoffMax
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(r.rng.Int63n(int64(half)))
}
