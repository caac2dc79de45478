package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// spinBudget is how long an idle worker polls before it parks. It
// covers nearly every gap of the 10k-node overlay at two workers — a
// worker that ran out of jobs waiting for the other's last lane, the
// serial stretch between two batches — so a warm worker picks the next
// batch up without a scheduler wake-up, while a long solo stretch (a
// one-lane window, a run that is over) costs at most this much CPU.
// A parked worker is woken through the scheduler (and, on a virtual
// machine, the hypervisor): at a 50 µs budget the 10k-node run was a
// quarter slower on a 2-vCPU guest (docs/PERFORMANCE.md, "Earning the
// second core").
const spinBudget = time.Millisecond

// yieldLimit is how long a spinning worker's yield may take before it
// counts as the processor being wanted elsewhere; with nothing else
// runnable the yield comes straight back.
const yieldLimit = 20 * time.Microsecond

// crew is the conductor's warm barrier: the goroutine that calls Run
// is worker 0, and up to workers−1 helper goroutines join it on each
// batch of independent jobs — a window's region lanes, or a merge's
// destination lanes. Worker 0 publishes a batch by storing one word,
// then claims jobs itself; every worker claims the next job index
// with a compare-and-swap on that word.
//
// The word packs the batch's generation (high 32 bits), its job count
// (bits 16–31) and the next unclaimed index (low 16 bits). A claim
// succeeds only while the generation it was read under is still the
// published one, and worker 0 does not publish the next batch until
// every job of this one has finished (pending reaches zero) — so a
// helper can never run a job of a batch that is over, and the batch's
// fn and job list are stable for as long as anyone can claim from it.
// Helpers need not see every generation: one that slept through some
// batches simply joins the current one.
//
// Waiting is spin-then-park: a worker polls for up to spinBudget, then
// parks on its own wake channel. Worker 0 spins only when there is a
// second processor and only GOMAXPROCS−1 helpers spin at all — the
// rest park at once, since a spinner without a processor of its own
// only delays the workers that have one. Worker 0 wakes at most as many
// parked helpers as the batch has jobs beyond its own first.
type crew struct {
	word    atomic.Uint64
	pending atomic.Int32 // jobs of the current batch not yet finished
	quit    atomic.Bool

	fn    func(int)
	fails []any // by job index: a recovered panic, written by the job's worker

	lead    parker // worker 0, waiting for the batch's last job
	helpers []parker
	done    sync.WaitGroup
}

// parker is one worker's spin-then-park wait. parked is set while the
// worker is (about to be) blocked on wake; whoever clears it with a
// compare-and-swap owes the worker exactly one token.
type parker struct {
	parked atomic.Bool
	wake   chan struct{}
	spin   bool // may poll before parking
}

// maxBatch is the largest job count the word can carry.
const maxBatch = 1<<16 - 1

// newCrew starts workers−1 helper goroutines.
func newCrew(workers int) *crew {
	procs := runtime.GOMAXPROCS(0)
	cr := &crew{lead: parker{wake: make(chan struct{}, 1), spin: procs > 1}, helpers: make([]parker, workers-1)}
	for h := range cr.helpers {
		p := &cr.helpers[h]
		p.wake, p.spin = make(chan struct{}, 1), h+1 < procs
		cr.done.Add(1)
		go cr.help(p)
	}
	return cr
}

// stop ends every helper and returns once they have exited.
func (cr *crew) stop() {
	cr.quit.Store(true)
	cr.word.Add(1 << 32)
	for h := range cr.helpers {
		cr.helpers[h].unpark()
	}
	cr.done.Wait()
}

// unpark hands a parked worker its token; it reports whether the
// worker was parked.
func (p *parker) unpark() bool {
	if p.parked.CompareAndSwap(true, false) {
		p.wake <- struct{}{}
		return true
	}
	return false
}

// park blocks until ready reports true, polling it for spinBudget
// first when the worker may spin. The ready check after parked is
// stored closes the race with unpark: either the waker sees parked and
// sends a token, or this worker sees the condition — and if both, it
// consumes the token the waker already owes it. A token that arrives
// for a condition already gone (a waker late from an earlier batch)
// only sends the worker round the loop again.
func (p *parker) park(ready func() bool) {
	if p.spin {
		for start, k := time.Now(), 1; ; k++ {
			if ready() {
				return
			}
			if k&63 == 0 {
				now := time.Now()
				if now.Sub(start) > spinBudget {
					break
				}
				// Yield to any other runnable goroutine (another
				// campaign's, under a parallel runner), and stop
				// spinning once one has taken the processor: the spin
				// only pays while the processor has nothing else to do.
				runtime.Gosched()
				if time.Since(now) > yieldLimit {
					break
				}
			}
		}
	}
	for {
		p.parked.Store(true)
		if ready() {
			if !p.parked.CompareAndSwap(true, false) {
				<-p.wake
			}
			return
		}
		<-p.wake
	}
}

// help is a helper goroutine's loop: wait for a generation it has not
// seen, claim jobs from it until none are left, repeat until stop.
func (cr *crew) help(p *parker) {
	defer cr.done.Done()
	var seen uint64 // the generation newCrew left, however late this starts
	for {
		p.park(func() bool { return cr.word.Load()>>32 != seen })
		// Read the generation before quit: stop sets quit before it
		// bumps the generation, so a generation read here is either
		// older than stop's bump (the next park sees the bump) or
		// comes with quit visible.
		seen = cr.word.Load() >> 32
		if cr.quit.Load() {
			return
		}
		cr.claim(seen)
	}
}

// claim runs jobs of generation gen until its jobs are all claimed or
// a newer batch is published.
func (cr *crew) claim(gen uint64) {
	for {
		w := cr.word.Load()
		if w>>32 != gen || w&maxBatch >= w>>16&maxBatch {
			return
		}
		if !cr.word.CompareAndSwap(w, w+1) {
			continue
		}
		cr.runJob(int(w & maxBatch))
		if cr.pending.Add(-1) == 0 {
			cr.lead.unpark()
		}
	}
}

// runJob runs one job, parking a panic in its fails slot: nobody could
// recover it on a helper goroutine, so it is re-raised by worker 0.
func (cr *crew) runJob(k int) {
	defer func() {
		if v := recover(); v != nil {
			cr.fails[k] = v
		}
	}()
	cr.fn(k)
}

// run executes fn(0), …, fn(n−1) across the crew and returns once all
// have finished, with the panic of the lowest job that panicked (nil if
// none). Only worker 0 calls it.
func (cr *crew) run(n int, fn func(int)) any {
	if n > maxBatch {
		panic(fmt.Sprintf("sim: batch of %d jobs exceeds %d", n, maxBatch))
	}
	if n > len(cr.fails) {
		cr.fails = make([]any, n)
	}
	cr.fn = fn
	cr.pending.Store(int32(n))
	gen := cr.word.Load()>>32 + 1
	cr.word.Store(gen<<32 | uint64(n)<<16)
	for h, woken := 0, 1; h < len(cr.helpers) && woken < n; h++ {
		if cr.helpers[h].unpark() {
			woken++
		}
	}
	cr.claim(gen)
	cr.lead.park(func() bool { return cr.pending.Load() == 0 })
	cr.fn = nil
	for k, v := range cr.fails[:n] {
		if v != nil {
			clear(cr.fails[k:n])
			return v
		}
	}
	return nil
}
