// Package sim provides the deterministic discrete-event engine the
// whole reproduction runs on: a virtual clock, an event queue (a
// millisecond timing wheel backed by a small heap for far-future
// events) with stable FIFO ordering among simultaneous events, and
// seeded random-number streams.
//
// The engine substitutes for wall-clock time and the real Internet:
// every network hop, mining interval and transaction arrival is an
// event scheduled at a virtual timestamp. A given seed reproduces the
// exact same run, which makes every experiment in EXPERIMENTS.md
// replayable.
package sim

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
	"time"
)

// Time is a virtual timestamp measured in milliseconds since the start
// of the simulation. Millisecond resolution matches the measurement
// granularity of the paper's instrumented Geth logs.
type Time int64

// Millisecond helpers.
const (
	Millisecond Time = 1
	Second           = 1000 * Millisecond
	Minute           = 60 * Second
	Hour             = 60 * Minute
)

// Duration converts the virtual time into a time.Duration.
func (t Time) Duration() time.Duration {
	return time.Duration(int64(t)) * time.Millisecond
}

// Seconds returns the timestamp in (fractional) seconds.
func (t Time) Seconds() float64 { return float64(t) / 1000 }

// String renders the timestamp as a duration offset.
func (t Time) String() string { return t.Duration().String() }

// FromDuration converts a wall duration into virtual Time, rounding to
// milliseconds.
func FromDuration(d time.Duration) Time {
	return Time(d.Milliseconds())
}

// Event is a scheduled callback. Events run exactly once, at their
// scheduled virtual time.
type Event func(now Time)

// ErrStopped is returned by Run variants when the engine was halted
// before the condition was met.
var ErrStopped = errors.New("sim: engine stopped")

// Handler is the typed fast path for hot event producers: instead of
// allocating a closure per event, a subsystem implements Handler once
// and schedules (handler, a, b) triples via ScheduleCall. The two
// uint64 arguments typically carry an opcode and an index into a
// caller-owned slab.
type Handler interface {
	HandleEvent(now Time, a, b uint64)
}

// EventNamer is optionally implemented by Handlers to label their
// opcodes in traces ("deliver", "announce", ...). Tracing falls back
// to the handler's type name and numeric opcode otherwise.
type EventNamer interface {
	EventName(op uint64) string
}

// EventClass partitions dispatched events by scheduling path, the
// coarse axis every trace is bucketed on.
type EventClass uint8

// Event classes.
const (
	// EventFunc is a closure scheduled via Schedule/ScheduleAt.
	EventFunc EventClass = iota
	// EventCall is a typed Handler invocation (ScheduleCall).
	EventCall
	// EventTimer is a Timer occurrence.
	EventTimer
)

// String names the class.
func (c EventClass) String() string {
	switch c {
	case EventFunc:
		return "func"
	case EventCall:
		return "call"
	case EventTimer:
		return "timer"
	default:
		return "unknown"
	}
}

// Probe observes event dispatch. A probe is strictly passive: it runs
// after the event's callback, consumes no simulation RNG, and cannot
// reorder or reschedule anything — attaching one never changes a
// seeded run's artifacts. h and op are set only for EventCall
// dispatches (the Handler and its first argument); wall is the
// callback's wall-clock cost. Probes are invoked from the engine's
// single execution goroutine.
type Probe interface {
	Dispatch(now Time, class EventClass, h Handler, op uint64, wall time.Duration)
}

// EngineStats is the always-on engine snapshot: a handful of counters
// the engine maintains regardless of tracing, cheap enough to read
// mid-run. Every field is a pure function of the simulation (no wall
// time), so stats are byte-identical across repeated seeded runs.
type EngineStats struct {
	// Now is the current virtual time.
	Now Time
	// Processed counts executed events.
	Processed uint64
	// Pending counts scheduled, not yet executed events.
	Pending int
	// MaxPending is the queue-depth high-water mark.
	MaxPending int
	// Slots is the event-storage capacity in events: near-tier arena
	// nodes (live + free) plus far-tier heap capacity.
	Slots int
	// Scheduled counts every enqueue (Schedule, ScheduleCall and Timer
	// resets alike): the global sequence counter.
	Scheduled uint64
	// FarScheduled counts the enqueues that landed at or beyond the
	// wheel horizon and took the far tier.
	FarScheduled uint64
}

// The near tier's horizon in milliseconds: one bucket per millisecond
// of [base, base+wheelSize). A power of two, so a timestamp's bucket is
// its low bits.
const (
	wheelSize = 1 << 12
	wheelMask = wheelSize - 1
)

// node is one near-tier event in the shared arena. Its timestamp is its
// bucket and its FIFO rank is its position in the bucket's list, so
// neither is stored; key is meaningful for ordered-band events only.
type node struct {
	h    Handler
	a, b uint64
	key  uint64
	next int32 // bucket-list or free-list link; 0 terminates
}

// bucket is one millisecond of the wheel: a FIFO list, plus that
// millisecond's ordered-band events as a list left unsorted until the
// drain first reaches it. Links index Engine.nodes; 0 is empty.
type bucket struct {
	head, tail, ord int32
}

// farEvent is one far-tier heap entry, its (at, seq) key inline.
type farEvent struct {
	at   Time
	seq  uint64
	h    Handler
	a, b uint64
}

// ordKey is sortOrdered's scratch element.
type ordKey struct {
	key uint64
	i   int32
}

// Engine is a single-threaded discrete-event executor. It is not safe
// for concurrent use; the simulation model is sequential by design so
// runs are deterministic.
//
// Pop order is the strict total order (at, seq) — seq is a global
// schedule counter, so simultaneous events run in FIFO order — held by
// a two-tier queue. The near tier is a timing wheel: one FIFO bucket
// per millisecond of [base, base+wheelSize), where base is the time of
// the last executed event (LastEventAt), all buckets sharing one
// free-listed node arena and an occupancy bitmap that finds the next
// non-empty bucket.
// Push and pop there are O(1). The far tier is a 4-ary heap for the few
// events at or beyond the horizon; whenever base advances, the far
// events the horizon now covers move into the wheel before the event at
// base runs — so a far event reaches its bucket before any direct
// insert at that millisecond can, and list position equals seq order.
// docs/PERFORMANCE.md ("The engine") has the ordering rules in full.
type Engine struct {
	now          Time
	base         Time // time of the last executed event, and the wheel's origin
	seq          uint64
	ran          uint64
	farScheduled uint64
	near         int // events in the wheel
	maxPending   int
	stopped      bool
	probe        Probe

	nodes    []node // nodes[0] is the nil sentinel
	free     int32
	sortedAt Time // millisecond whose ordered list is in key order, -1 none
	scratch  []ordKey
	far      []farEvent
	occ      [wheelSize / 64]uint64
	buckets  [wheelSize]bucket
}

// NewEngine creates an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{nodes: make([]node, 1), sortedAt: -1}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// LastEventAt returns the timestamp of the most recently executed
// event (zero before any event runs). Unlike Now, it never reflects a
// RunUntil deadline the clock coasted to without executing anything —
// making it the right "how far did the simulation actually get"
// frontier for lanes whose granted deadlines overshoot their last
// event by a lookahead-bound-dependent margin.
func (e *Engine) LastEventAt() Time { return e.base }

// Processed returns the number of events executed so far. Cancelled
// timers do not count: unlike the pre-Timer engine, dead events are
// removed from the queue instead of firing as no-ops.
func (e *Engine) Processed() uint64 { return e.ran }

// Pending returns the number of scheduled, not yet executed events.
func (e *Engine) Pending() int { return e.near + len(e.far) }

// Stats snapshots the always-on engine counters.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Now:          e.now,
		Processed:    e.ran,
		Pending:      e.Pending(),
		MaxPending:   e.maxPending,
		Slots:        len(e.nodes) - 1 + cap(e.far),
		Scheduled:    e.seq,
		FarScheduled: e.farScheduled,
	}
}

// SetProbe attaches (or with nil, detaches) a dispatch probe. The
// disabled path costs one nil check per event; see docs/OBSERVABILITY.md
// for the determinism contract.
func (e *Engine) SetProbe(p Probe) { e.probe = p }

// HandleEvent adapts a closure to Handler: the queue holds one event
// representation, (Handler, a, b). A func value is pointer-shaped, so
// the conversion does not allocate.
func (fn Event) HandleEvent(now Time, _, _ uint64) { fn(now) }

// orderedBand marks sequence numbers supplied by the caller through
// ScheduleCallAtOrdered. It sits above every FIFO sequence the engine
// can assign (seq is a counter starting at 1), so at equal timestamps
// all FIFO-scheduled events run before all ordered events.
const orderedBand uint64 = 1 << 63

// enqueue queues one event at an absolute time no earlier than now.
// seq is the engine's own counter for FIFO events, orderedBand|key for
// ordered ones.
func (e *Engine) enqueue(at Time, seq uint64, h Handler, a, b uint64) {
	if at-e.base < wheelSize {
		e.place(at, seq, h, a, b)
	} else {
		e.farScheduled++
		e.far = append(e.far, farEvent{})
		e.farUp(len(e.far)-1, farEvent{at, seq, h, a, b})
	}
	if n := e.Pending(); n > e.maxPending {
		e.maxPending = n
	}
}

// place links one event into its wheel bucket: FIFO events at the
// tail, ordered events onto the unsorted ordered list.
func (e *Engine) place(at Time, seq uint64, h Handler, a, b uint64) {
	i := e.free
	if i != 0 {
		e.free = e.nodes[i].next
	} else {
		e.nodes = append(e.nodes, node{})
		i = int32(len(e.nodes) - 1)
	}
	bi := uint(at) & wheelMask
	bk := &e.buckets[bi]
	n := &e.nodes[i]
	n.h, n.a, n.b, n.key, n.next = h, a, b, seq, 0
	switch {
	case seq >= orderedBand:
		n.next, bk.ord = bk.ord, i
		if at == e.sortedAt {
			e.sortedAt = -1
		}
	case bk.tail != 0:
		e.nodes[bk.tail].next = i
		bk.tail = i
	default:
		bk.head, bk.tail = i, i
	}
	e.occ[bi>>6] |= 1 << (bi & 63)
	e.near++
}

// take unlinks and returns the next event of the bucket for time at,
// which must be non-empty: the FIFO list first, then the ordered list
// in ascending key order. A zero-delay FIFO event scheduled by an
// ordered event's handler therefore still runs before the remaining
// ordered events, as (at, seq) requires.
func (e *Engine) take(at Time) (Handler, uint64, uint64) {
	bi := uint(at) & wheelMask
	bk := &e.buckets[bi]
	i := bk.head
	if i != 0 {
		if bk.head = e.nodes[i].next; bk.head == 0 {
			bk.tail = 0
		}
	} else {
		if e.sortedAt != at {
			e.sortOrdered(bk)
			e.sortedAt = at
		}
		i = bk.ord
		bk.ord = e.nodes[i].next
	}
	h, a, b := e.nodes[i].h, e.nodes[i].a, e.nodes[i].b
	e.release(bi, i)
	return h, a, b
}

// release returns an unlinked node to the free list, dropping its
// handler reference so callbacks do not outlive their event, and clears
// the bucket's occupancy bit when that was its last event.
func (e *Engine) release(bi uint, i int32) {
	n := &e.nodes[i]
	n.h = nil
	n.next, e.free = e.free, i
	e.near--
	if bk := &e.buckets[bi]; bk.head == 0 && bk.ord == 0 {
		e.occ[bi>>6] &^= 1 << (bi & 63)
	}
}

// sortOrdered puts a bucket's ordered list into ascending key order.
// Sorting once per drain instead of at insert matters under the
// conductor: a bucket is fed by many merges in non-monotone key order.
func (e *Engine) sortOrdered(bk *bucket) {
	if e.nodes[bk.ord].next == 0 {
		return
	}
	s := e.scratch[:0]
	for i := bk.ord; i != 0; i = e.nodes[i].next {
		s = append(s, ordKey{e.nodes[i].key, i})
	}
	slices.SortFunc(s, func(x, y ordKey) int { return cmp.Compare(x.key, y.key) })
	link := &bk.ord
	for _, k := range s {
		*link = k.i
		link = &e.nodes[k.i].next
	}
	*link = 0
	e.scratch = s
}

// unlink removes a pending timer's node from the wheel by scanning its
// one bucket (timers are FIFO events).
func (e *Engine) unlink(t *Timer) {
	bi := uint(t.at) & wheelMask
	bk := &e.buckets[bi]
	prev, i := int32(0), bk.head
	for e.nodes[i].h != Handler(t) {
		prev, i = i, e.nodes[i].next
	}
	next := e.nodes[i].next
	if prev == 0 {
		bk.head = next
	} else {
		e.nodes[prev].next = next
	}
	if next == 0 {
		bk.tail = prev
	}
	e.release(bi, i)
}

// nextNear returns the time of the first occupied bucket at or after
// base. The wheel must be non-empty.
func (e *Engine) nextNear() Time {
	bi := uint(e.base) & wheelMask
	w := bi >> 6
	if m := e.occ[w] >> (bi & 63); m != 0 {
		return e.base + Time(bits.TrailingZeros64(m))
	}
	for {
		// Wraps: the first word comes round again for the bits below bi.
		w = (w + 1) % uint(len(e.occ))
		if m := e.occ[w]; m != 0 {
			return e.base + Time((w<<6+uint(bits.TrailingZeros64(m))-bi)&wheelMask)
		}
	}
}

// farLess orders far-tier entries by (at, seq); seq values are unique,
// so this is a strict total order.
func farLess(x, y *farEvent) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	return x.seq < y.seq
}

// farSet stores ev at heap position pos, telling a timer where its
// pending occurrence now sits so Stop and Reset can remove it.
func (e *Engine) farSet(pos int, ev farEvent) {
	e.far[pos] = ev
	if t, ok := ev.h.(*Timer); ok {
		t.pos = int32(pos)
	}
}

// farUp sifts ev up from the hole at pos.
func (e *Engine) farUp(pos int, ev farEvent) {
	for pos > 0 {
		parent := (pos - 1) / 4
		if !farLess(&ev, &e.far[parent]) {
			break
		}
		e.farSet(pos, e.far[parent])
		pos = parent
	}
	e.farSet(pos, ev)
}

// farRemove deletes the entry at heap position pos (0 pops the
// minimum) and refills the hole with the last entry.
func (e *Engine) farRemove(pos int) {
	n := len(e.far) - 1
	ev := e.far[n]
	e.far[n] = farEvent{}
	e.far = e.far[:n]
	if pos == n {
		return
	}
	if pos > 0 && farLess(&ev, &e.far[(pos-1)/4]) {
		e.farUp(pos, ev)
		return
	}
	for {
		best := 4*pos + 1
		if best >= n {
			break
		}
		for c, last := best+1, min(best+4, n); c < last; c++ {
			if farLess(&e.far[c], &e.far[best]) {
				best = c
			}
		}
		if !farLess(&e.far[best], &ev) {
			break
		}
		e.farSet(pos, e.far[best])
		pos = best
	}
	e.farSet(pos, ev)
}

// Schedule runs fn at the given delay from now. Negative delays are
// clamped to zero (events cannot run in the past).
func (e *Engine) Schedule(delay Time, fn Event) {
	if fn != nil {
		e.ScheduleCall(delay, fn, 0, 0)
	}
}

// ScheduleAt runs fn at an absolute virtual time. Times in the past
// are clamped to now.
func (e *Engine) ScheduleAt(at Time, fn Event) {
	if fn != nil {
		e.ScheduleCallAt(at, fn, 0, 0)
	}
}

// ScheduleCall schedules a typed handler invocation. This is the
// zero-allocation fast path: no closure is created — the handler
// pointer and its two arguments are stored inline in the event.
func (e *Engine) ScheduleCall(delay Time, h Handler, a, b uint64) {
	if delay < 0 {
		delay = 0
	}
	e.ScheduleCallAt(e.now+delay, h, a, b)
}

// ScheduleCallAt is ScheduleCall at an absolute time (clamped to now).
func (e *Engine) ScheduleCallAt(at Time, h Handler, a, b uint64) {
	if h == nil {
		return
	}
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.enqueue(at, e.seq, h, a, b)
}

// ScheduleCallAtOrdered is ScheduleCallAt with a caller-supplied tie
// key in place of the engine's FIFO sequence number. At equal
// timestamps, ordered events run after every FIFO-scheduled event and
// among themselves in ascending key order — regardless of the order
// the ScheduleCallAtOrdered calls were made in. Keys must be unique
// per engine among pending ordered events and below 1<<63.
//
// This exists for cross-shard message merging: deliveries buffered on
// other lanes are injected in batches whose composition depends on
// window sizing, so FIFO sequence numbers would make equal-time tie
// order depend on the lookahead bound matrix. A key derived from the
// sending lane's own execution order keeps the merged schedule a pure
// function of simulation state.
func (e *Engine) ScheduleCallAtOrdered(at Time, h Handler, a, b uint64, key uint64) {
	if h == nil {
		return
	}
	if at < e.now {
		at = e.now
	}
	e.seq++ // counts toward Scheduled; the tie key below replaces it in the queue
	e.enqueue(at, orderedBand|key, h, a, b)
}

// Stop halts the engine: the currently executing event finishes, no
// further events run during the active Run* call, and the queue is left
// intact. Stop is one-shot — it halts at most one Run* call. Issued
// while the engine is idle, it inhibits exactly the next Run*/RunFor
// call, which returns immediately without executing anything (and, for
// RunUntil, without advancing the clock). The call after that resumes
// normally, so stop-then-rerun still drains the queue.
func (e *Engine) Stop() { e.stopped = true }

// consumeStop reports and clears a pending stop request. Clearing at
// the point of consumption (rather than on Run* entry) is what makes a
// pre-run Stop effective instead of silently discarded.
func (e *Engine) consumeStop() bool {
	if e.stopped {
		e.stopped = false
		return true
	}
	return false
}

// step executes the next event if it is due by deadline. It reports
// false when the queue is empty or the next event is later.
func (e *Engine) step(deadline Time) bool {
	at, ok := e.NextEventAt()
	if !ok || at > deadline {
		return false
	}
	if at != e.base {
		// The wheel's origin moves here and nowhere else — never in
		// NextEventAt, because the conductor's merge inserts events
		// between RunUntil calls at times before the lane's next event.
		// Far events the horizon now covers move into the wheel before
		// the event at base runs, in (at, seq) order.
		e.base = at
		for len(e.far) > 0 && e.far[0].at-at < wheelSize {
			ev := e.far[0]
			e.farRemove(0)
			e.place(ev.at, ev.seq, ev.h, ev.a, ev.b)
			if t, ok := ev.h.(*Timer); ok {
				t.pos = timerNear
			}
		}
	}
	h, a, b := e.take(at)
	// Every schedule path clamps to now, so at >= e.now always; the
	// guard makes the clock monotonic by construction rather than by
	// trusting every (current and future) enqueue call site.
	if at > e.now {
		e.now = at
	}
	e.ran++
	if e.probe != nil {
		e.dispatchProbed(h, a, b)
	} else {
		h.HandleEvent(e.now, a, b)
	}
	return true
}

// dispatchProbed is the traced twin of step's dispatch: the same
// callback, plus wall timing and a probe notification after it. Kept
// out of step so the untraced hot path stays compact.
func (e *Engine) dispatchProbed(h Handler, a, b uint64) {
	start := time.Now()
	h.HandleEvent(e.now, a, b)
	wall := time.Since(start)
	switch h.(type) {
	case Event:
		e.probe.Dispatch(e.now, EventFunc, nil, 0, wall)
	case *Timer:
		e.probe.Dispatch(e.now, EventTimer, nil, 0, wall)
	default:
		e.probe.Dispatch(e.now, EventCall, h, a, wall)
	}
}

// Run executes events until the queue drains or Stop is called. A Stop
// issued before Run starts inhibits this call entirely (see Stop).
func (e *Engine) Run() {
	if e.consumeStop() {
		return
	}
	for e.step(maxTime) {
		if e.consumeStop() {
			return
		}
	}
}

// RunUntil executes events with timestamps <= deadline. The clock is
// advanced to the deadline even if the queue drains earlier, so
// repeated RunUntil calls walk time forward monotonically. When the run
// is halted by Stop — including a Stop issued before the call — the
// clock is not advanced past the last executed event.
func (e *Engine) RunUntil(deadline Time) {
	if e.consumeStop() {
		return
	}
	for e.step(deadline) {
		if e.consumeStop() {
			return
		}
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// NextEventAt returns the timestamp of the earliest queued event; ok is
// false when the queue is empty. The conductor uses it to derive each
// lookahead window without disturbing the queue. Every far event lies
// at or beyond base+wheelSize, past every wheel event.
func (e *Engine) NextEventAt() (at Time, ok bool) {
	if e.near != 0 {
		return e.nextNear(), true
	}
	if len(e.far) != 0 {
		return e.far[0].at, true
	}
	return 0, false
}

// RunFor advances the simulation by d from the current time.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }

// Timer is a cancellable, reschedulable event handle bound to one
// callback. A subsystem allocates a Timer once and Resets it for every
// occurrence of its recurring event (mining race wins, workload
// arrivals, hold timeouts); event storage is pooled, so steady-state
// rescheduling allocates nothing.
//
// Determinism contract: every Reset consumes the next global sequence
// number, exactly as a fresh Schedule at the same point would — so
// replacing schedule-and-tombstone loops with a Timer preserves the
// relative order of all simultaneous events. Stop removes the queued
// occurrence outright — no tombstone — without disturbing any other
// event's (at, seq) key.
type Timer struct {
	e   *Engine
	fn  Event
	at  Time  // firing time of the pending occurrence
	pos int32 // far-heap position, or timerNear / timerIdle
}

// Timer.pos values that are not far-heap positions.
const (
	timerIdle int32 = -1
	timerNear int32 = -2 // pending in the wheel, in bucket at&wheelMask
)

// NewTimer creates an idle timer for fn. fn must be non-nil.
func (e *Engine) NewTimer(fn Event) *Timer {
	if fn == nil {
		panic("sim: NewTimer with nil callback")
	}
	return &Timer{e: e, fn: fn, pos: timerIdle}
}

// HandleEvent fires the timer; it is the engine's entry point, not the
// owner's. The timer is marked idle before the callback so the callback
// can Reset (reschedule-in-callback) without tripping the still-pending
// path.
func (t *Timer) HandleEvent(now Time, _, _ uint64) {
	t.pos = timerIdle
	t.fn(now)
}

// Reset (re)schedules the timer to fire at delay from now, cancelling
// any pending occurrence. Negative delays clamp to zero.
func (t *Timer) Reset(delay Time) {
	if delay < 0 {
		delay = 0
	}
	t.ResetAt(t.e.now + delay)
}

// ResetAt (re)schedules the timer to fire at an absolute time (clamped
// to now), cancelling any pending occurrence.
func (t *Timer) ResetAt(at Time) {
	e := t.e
	if at < e.now {
		at = e.now
	}
	t.Stop()
	t.at, t.pos = at, timerNear // enqueue overwrites pos if it takes the far tier
	e.seq++
	e.enqueue(at, e.seq, t, 0, 0)
}

// Stop cancels the pending occurrence, reporting whether one was
// pending. A stopped timer can be Reset again.
func (t *Timer) Stop() bool {
	switch t.pos {
	case timerIdle:
		return false
	case timerNear:
		t.e.unlink(t)
	default:
		t.e.farRemove(int(t.pos))
	}
	t.pos = timerIdle
	return true
}

// Pending reports whether an occurrence is queued.
func (t *Timer) Pending() bool { return t.pos != timerIdle }

// When returns the pending occurrence's firing time; ok is false when
// the timer is idle.
func (t *Timer) When() (at Time, ok bool) {
	if t.pos == timerIdle {
		return 0, false
	}
	return t.at, true
}

// RNG is a deterministic random stream with the distribution helpers
// the simulation model needs: PCG from math/rand/v2. The hot draws
// (Uint64, Float64, IntN, PermInto, Shuffle) call the concrete
// generator, not rand.Rand through the rand.Source interface; only the
// ziggurat samplers still go through r, which wraps the same src. The
// stream is draw for draw rand.Rand's (TestRNGFastPathMatchesRand).
type RNG struct {
	src *rand.PCG
	r   *rand.Rand
}

// NewRNG creates a deterministic stream from a 64-bit seed.
func NewRNG(seed uint64) *RNG {
	src := rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)
	return &RNG{src: src, r: rand.New(src)}
}

// Fork derives an independent child stream. Using labeled forks keeps
// subsystem randomness independent of event interleaving: adding events
// to one subsystem does not perturb another's draws.
func (g *RNG) Fork(label string) *RNG {
	h := uint64(14695981039346656037)
	for _, c := range []byte(label) {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return NewRNG(g.src.Uint64() ^ h)
}

// Float64 returns a uniform sample in [0, 1), as rand.Rand.Float64.
func (g *RNG) Float64() float64 {
	return float64(g.src.Uint64()<<11>>11) / (1 << 53)
}

// uint64n returns a uniform sample in [0, n), n > 0: math/rand/v2's
// (*Rand).uint64n on the concrete generator (its 32-bit branch yields
// this same sequence, so one body serves every platform).
func (g *RNG) uint64n(n uint64) uint64 {
	if n&(n-1) == 0 {
		return g.src.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(g.src.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(g.src.Uint64(), n)
		}
	}
	return hi
}

// IntN returns a uniform sample in [0, n). n must be > 0.
func (g *RNG) IntN(n int) int {
	if n <= 0 {
		panic("sim: invalid argument to IntN")
	}
	return int(g.uint64n(uint64(n)))
}

// Uint64 returns a uniform 64-bit sample.
func (g *RNG) Uint64() uint64 { return g.src.Uint64() }

// NormFloat64 returns a standard normal sample.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// Exponential samples an exponential distribution with the given mean.
// It is the arrival law for both block production (Poisson mining
// race) and transaction submission.
func (g *RNG) Exponential(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return g.r.ExpFloat64() * mean
}

// ExpTime samples an exponential inter-arrival as a virtual duration.
func (g *RNG) ExpTime(mean Time) Time {
	return Time(math.Round(g.Exponential(float64(mean))))
}

// LogNormal samples a log-normal distribution parameterized by the
// underlying normal's mu and sigma. Internet one-way-delay jitter is
// classically log-normal.
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*g.r.NormFloat64())
}

// Bernoulli returns true with probability p.
func (g *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.Float64() < p
}

// Zipf draws from a Zipf distribution over [0, n) with exponent s > 1,
// used to skew transaction-sender activity (a few accounts produce
// most traffic). For repeated draws with the same parameters prefer
// NewZipf, which precomputes the CDF.
func (g *RNG) Zipf(n int, s float64) int {
	if n <= 1 {
		return 0
	}
	return NewZipf(g, n, s).Sample()
}

// Zipf is a precomputed discrete Zipf sampler over [0, n).
type Zipf struct {
	rng *RNG
	cdf []float64
}

// NewZipf builds a sampler with exponent s over [0, n). Degenerate
// parameters (n <= 1) yield a sampler that always returns 0.
func NewZipf(rng *RNG, n int, s float64) *Zipf {
	z := &Zipf{rng: rng}
	if n <= 1 {
		return z
	}
	z.cdf = make([]float64, n)
	var acc float64
	for k := 1; k <= n; k++ {
		acc += 1 / math.Pow(float64(k), s)
		z.cdf[k-1] = acc
	}
	return z
}

// Sample draws one index.
func (z *Zipf) Sample() int {
	if len(z.cdf) == 0 {
		return 0
	}
	u := z.rng.Float64() * z.cdf[len(z.cdf)-1]
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// WeightedChoice draws an index proportionally to weights. It returns
// an error when no weight is positive.
func (g *RNG) WeightedChoice(weights []float64) (int, error) {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return 0, fmt.Errorf("sim: weighted choice over non-positive weights %v", weights)
	}
	u := g.Float64() * total
	var acc float64
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if u <= acc {
			return i, nil
		}
	}
	// Floating-point slack: return the last positive-weight index.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i, nil
		}
	}
	return 0, fmt.Errorf("sim: weighted choice fell through")
}

// Weighted is a precomputed cumulative-weight sampler over a fixed
// weight vector: construction is O(n), each draw is one uniform sample
// plus a binary search. It makes exactly the same choice WeightedChoice
// would make from the same RNG state (same single Float64 draw, same
// selection rule), so hot paths can switch to it without perturbing
// seeded runs. Non-positive weights are never drawn.
type Weighted struct {
	cdf   []float64 // cumulative sums over positive weights only
	index []int     // original index of each positive weight
	total float64
}

// NewWeighted builds a sampler over weights. It returns an error when
// no weight is positive, matching WeightedChoice.
func NewWeighted(weights []float64) (*Weighted, error) {
	w := &Weighted{}
	var total float64
	for i, x := range weights {
		if x <= 0 {
			continue
		}
		total += x
		w.cdf = append(w.cdf, total)
		w.index = append(w.index, i)
	}
	if total <= 0 {
		return nil, fmt.Errorf("sim: weighted sampler over non-positive weights %v", weights)
	}
	w.total = total
	return w, nil
}

// Sample draws one index proportionally to the weights.
func (w *Weighted) Sample(g *RNG) int {
	u := g.Float64() * w.total
	// First positive-weight position with cdf >= u — the same index the
	// linear scan in WeightedChoice stops at (its condition is u <= acc
	// over the running sum of positive weights).
	lo, hi := 0, len(w.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if w.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return w.index[lo]
}

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int {
	p := make([]int, n)
	g.PermInto(p)
	return p
}

// PermInto fills p with a random permutation of [0, len(p)), consuming
// exactly the RNG draws rand.Rand.Perm(len(p)) would — the same
// Fisher–Yates, inline. It exists so hot paths can reuse a scratch
// buffer instead of allocating a fresh permutation per call.
func (g *RNG) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := g.uint64n(uint64(i + 1))
		p[i], p[j] = p[j], p[i]
	}
}

// Shuffle permutes xs in place, draw for draw as rand.Rand.Shuffle.
func Shuffle[T any](g *RNG, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := g.uint64n(uint64(i + 1))
		xs[i], xs[j] = xs[j], xs[i]
	}
}
