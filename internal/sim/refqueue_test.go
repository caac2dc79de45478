package sim

// refEngine is the queue sim.Engine had before the timing wheel: an
// index-addressed 4-ary heap over a free-listed slot arena, ordered by
// (at, seq). It survives here only as the differential reference for
// TestEngineMatchesReferenceOrder and FuzzEngineOrder — the wheel must
// pop in exactly this order.
type refEngine struct {
	now, lastAt Time
	slots       []refSlot
	free, heap  []int32
	seq, ran    uint64
	stopped     bool
	maxPending  int
}

type refSlot struct {
	at    Time
	seq   uint64
	pos   int32
	fn    Event
	h     Handler
	a, b  uint64
	timer *refTimer
}

func (e *refEngine) Now() Time         { return e.now }
func (e *refEngine) LastEventAt() Time { return e.lastAt }
func (e *refEngine) Pending() int      { return len(e.heap) }
func (e *refEngine) Stop()             { e.stopped = true }
func (e *refEngine) counters() (int, uint64, uint64) {
	return e.maxPending, e.ran, e.seq
}

func (e *refEngine) acquire() int32 {
	if n := len(e.free); n > 0 {
		i := e.free[n-1]
		e.free = e.free[:n-1]
		return i
	}
	e.slots = append(e.slots, refSlot{pos: -1})
	return int32(len(e.slots) - 1)
}

func (e *refEngine) release(i int32) {
	e.slots[i] = refSlot{pos: -1}
	e.free = append(e.free, i)
}

func (e *refEngine) less(i, j int32) bool {
	si, sj := &e.slots[i], &e.slots[j]
	if si.at != sj.at {
		return si.at < sj.at
	}
	return si.seq < sj.seq
}

func (e *refEngine) set(pos, i int32) {
	e.heap[pos] = i
	e.slots[i].pos = pos
}

func (e *refEngine) siftUp(pos int32) {
	i := e.heap[pos]
	for pos > 0 {
		parent := (pos - 1) / 4
		if !e.less(i, e.heap[parent]) {
			break
		}
		e.set(pos, e.heap[parent])
		pos = parent
	}
	e.set(pos, i)
}

func (e *refEngine) siftDown(pos int32) {
	n := int32(len(e.heap))
	i := e.heap[pos]
	for {
		best := 4*pos + 1
		if best >= n {
			break
		}
		for c, last := best+1, min(best+4, n); c < last; c++ {
			if e.less(e.heap[c], e.heap[best]) {
				best = c
			}
		}
		if !e.less(e.heap[best], i) {
			break
		}
		e.set(pos, e.heap[best])
		pos = best
	}
	e.set(pos, i)
}

// detach removes slot i from an arbitrary heap position (0 pops the
// minimum). The slot itself stays allocated.
func (e *refEngine) detach(i int32) {
	pos := e.slots[i].pos
	n := int32(len(e.heap)) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	e.slots[i].pos = -1
	if pos == n {
		return
	}
	e.set(pos, last)
	if pos > 0 && e.less(last, e.heap[(pos-1)/4]) {
		e.siftUp(pos)
	} else {
		e.siftDown(pos)
	}
}

// push queues slot i at the (clamped) time under the given tie key.
func (e *refEngine) push(i int32, at Time, seq uint64) {
	if at < e.now {
		at = e.now
	}
	e.slots[i].at, e.slots[i].seq = at, seq
	e.heap = append(e.heap, i)
	e.maxPending = max(e.maxPending, len(e.heap))
	e.slots[i].pos = int32(len(e.heap) - 1)
	e.siftUp(int32(len(e.heap) - 1))
}

func (e *refEngine) Schedule(delay Time, fn Event) {
	i := e.acquire()
	e.slots[i].fn = fn
	e.seq++
	e.push(i, e.now+max(delay, 0), e.seq)
}

func (e *refEngine) ScheduleCall(delay Time, h Handler, a, b uint64) {
	e.ScheduleCallAt(e.now+max(delay, 0), h, a, b)
}

func (e *refEngine) ScheduleCallAt(at Time, h Handler, a, b uint64) {
	e.seq++
	e.call(at, h, a, b, e.seq)
}

func (e *refEngine) ScheduleCallAtOrdered(at Time, h Handler, a, b uint64, key uint64) {
	e.seq++
	e.call(at, h, a, b, orderedBand|key)
}

func (e *refEngine) call(at Time, h Handler, a, b uint64, seq uint64) {
	i := e.acquire()
	e.slots[i].h, e.slots[i].a, e.slots[i].b = h, a, b
	e.push(i, at, seq)
}

func (e *refEngine) consumeStop() bool {
	was := e.stopped
	e.stopped = false
	return was
}

func (e *refEngine) step() {
	i := e.heap[0]
	e.detach(i)
	s := e.slots[i]
	e.now = max(e.now, s.at)
	e.lastAt = e.now
	e.ran++
	e.release(i)
	switch {
	case s.timer != nil:
		s.timer.slot = -1
		s.timer.fn(e.now)
	case s.fn != nil:
		s.fn(e.now)
	default:
		s.h.HandleEvent(e.now, s.a, s.b)
	}
}

func (e *refEngine) Run() { e.runUntil(maxTime, false) }

func (e *refEngine) RunUntil(deadline Time) { e.runUntil(deadline, true) }

func (e *refEngine) runUntil(deadline Time, coast bool) {
	if e.consumeStop() {
		return
	}
	for len(e.heap) != 0 && e.slots[e.heap[0]].at <= deadline {
		e.step()
		if e.consumeStop() {
			return
		}
	}
	if coast && e.now < deadline {
		e.now = deadline
	}
}

type refTimer struct {
	e    *refEngine
	fn   Event
	slot int32
}

func (e *refEngine) newTimer(fn Event) diffTimer { return &refTimer{e: e, fn: fn, slot: -1} }

func (t *refTimer) Reset(delay Time) { t.ResetAt(t.e.now + max(delay, 0)) }

func (t *refTimer) ResetAt(at Time) {
	e := t.e
	if t.slot >= 0 {
		e.detach(t.slot)
	} else {
		t.slot = e.acquire()
		e.slots[t.slot].timer = t
	}
	e.seq++
	e.push(t.slot, at, e.seq)
}

func (t *refTimer) Stop() bool {
	if t.slot < 0 {
		return false
	}
	t.e.detach(t.slot)
	t.e.release(t.slot)
	t.slot = -1
	return true
}

func (t *refTimer) When() (Time, bool) {
	if t.slot < 0 {
		return 0, false
	}
	return t.e.slots[t.slot].at, true
}
