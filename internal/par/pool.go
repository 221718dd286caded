// Package par provides the shared machinery for deterministic
// intra-run parallelism: a persistent worker pool, a contiguous
// partition helper with caller-defined legal cut points, and the
// parity-double-buffered staging matrix used to hand events between
// partitions.
//
// Both the NoC tile tick (internal/noc/tile.go) and the core node
// shards (internal/core/shard.go) are built on this package, and both
// follow the same two-phase discipline: a compute phase where every
// partition touches only partition-owned state (staging anything
// cross-partition), then a serial commit phase that drains staged
// state in fixed partition order. The pool's dispatch is a
// generation-counter barrier that spins briefly before parking, so a
// dispatch every few microseconds costs atomic operations rather than
// goroutine wake-ups. DESIGN.md §11 and §12 carry the exactness
// arguments.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The spin budget: how many polls a waiting worker (or the waiting
// caller) makes before it parks, yielding its P every spinYield polls.
// About 40 µs on a 2-CPU x86 host — enough to cover the serial commit
// between a cycle's two dispatches (7–10 µs on the 8x8 mesh), short
// enough that an idle or descheduled pool gives its CPUs back quickly.
const (
	spinPolls = 1 << 14
	spinYield = 1 << 8
)

// Each waiter tracks missShare, the exponentially weighted share of its
// recent spins that ran out of budget (in 1/65536ths; each spin moves it
// 1/16 of the way to its outcome), and skips the spin while the share
// is over 1/8. On a host with free CPUs under 3% of spins run out; when
// other processes hold the CPUs, about 30% do, because the partner is
// descheduled, and every one burns the full budget the other processes
// could have used. Each skipped spin decays the share by 1/256, so a
// waiter probes again after about ninety parks.
const (
	missShift = 4
	missLimit = 1 << 13
	missDecay = 8
)

// parkBit marks the pending count when the caller has parked on done.
// Keeping the flag in the counter makes the last worker's decrement and
// its decision to signal one atomic step: a separate flag would let a
// worker delayed between the two see the next Run's flag and wake the
// caller a round early.
const parkBit = 1 << 30

// Pool is a persistent worker pool for two-phase parallel ticking.
// The caller's goroutine doubles as worker 0, so a Pool of size n adds
// only n-1 goroutines.
//
// Dispatch is a generation-counter barrier: Run publishes f, sets the
// pending count to n-1, and bumps the generation. Waiting workers poll
// the generation for a bounded budget (spinPolls) and only then park
// on a condition variable; the caller broadcasts only when some worker
// is counted as parked. Completion mirrors it: the caller runs worker
// 0, polls the pending count under the same budget, then parks on a
// one-slot channel that the last worker to finish signals. At one
// dispatch every few microseconds nobody parks, and a dispatch costs a
// handful of atomic operations instead of a futex wake-up and a park
// per worker. When GOMAXPROCS is below the pool size, both sides skip
// the spin and park at once, so a poller never holds a P another
// worker needs; a waiter whose recent spins mostly ran out (other
// processes hold the CPUs) also parks at once until that history
// decays.
//
// Every hand-off goes through sequentially consistent atomics (the
// generation out, the pending count back), so everything the caller
// wrote before Run happens before every worker section, and every
// section happens before Run returns.
//
// Run is not safe for concurrent use from multiple goroutines; the
// simulator drives it from the single coordinator goroutine that owns
// System.Tick. That is the only concurrency contract the simulator
// needs, and it keeps the pool free of locking on the hot path.
type Pool struct {
	n    int
	f    func(worker int) // published by the generation bump
	spin bool             // GOMAXPROCS >= n when Run began; published with f

	gen     atomic.Uint64 // bumped once per Run, and once by Close
	_       [56]byte      // keeps polled gen off the line finishing workers write
	pending atomic.Int32  // workers 1..n-1 still running this generation, | parkBit

	parked atomic.Int32 // workers counted as parked on wake
	closed atomic.Bool
	caller spinner // the caller's spin history; each worker keeps its own

	mu   sync.Mutex
	wake sync.Cond // L = &mu; parked workers wait for a new generation
	done chan struct{}

	exited    sync.WaitGroup
	closeOnce sync.Once
}

// NewPool returns a pool that runs each submitted function on n
// workers (the caller plus n-1 worker goroutines). n < 1 is treated
// as 1.
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{n: n, spin: runtime.GOMAXPROCS(0) >= n, done: make(chan struct{}, 1)}
	p.wake.L = &p.mu
	p.exited.Add(n - 1)
	for w := 1; w < n; w++ {
		go p.work(w, p.spin)
	}
	return p
}

// Size returns the number of workers, including the caller.
func (p *Pool) Size() int { return p.n }

// work is the body of worker w: wait for each new generation, run its
// section, and count itself out. spin is the caller's latest spin
// decision; after the first wait it is re-read under each generation.
func (p *Pool) work(w int, spin bool) {
	defer p.exited.Done()
	var seen uint64
	var sp spinner
	for {
		seen = p.await(seen, spin, &sp)
		if p.closed.Load() {
			return
		}
		spin = p.spin
		p.f(w)
		if p.pending.Add(-1) == parkBit {
			p.done <- struct{}{}
		}
	}
}

// await returns the first generation after seen, spinning first when
// spin is set and the worker's spin history allows, then parking.
func (p *Pool) await(seen uint64, spin bool, sp *spinner) uint64 {
	g := seen
	if spin && sp.wait(func() bool { g = p.gen.Load(); return g != seen }) {
		return g
	}
	// Counting ourselves parked before the final generation check pairs
	// with Run's bump-then-check: either Run sees the count and
	// broadcasts under mu, or this check sees the new generation.
	p.mu.Lock()
	p.parked.Add(1)
	g = p.gen.Load()
	for g == seen {
		p.wake.Wait()
		g = p.gen.Load()
	}
	p.parked.Add(-1)
	p.mu.Unlock()
	return g
}

// bump advances the generation and wakes any parked worker.
func (p *Pool) bump() {
	p.gen.Add(1)
	if p.parked.Load() > 0 {
		p.mu.Lock()
		p.wake.Broadcast()
		p.mu.Unlock()
	}
}

// Run invokes f(worker) once per worker, with worker IDs 0..Size()-1,
// and returns after every invocation has finished. Worker 0 runs on
// the calling goroutine.
func (p *Pool) Run(f func(worker int)) {
	// Waiters may poll only when every worker can hold a P at once.
	// Sampled once per Run: GOMAXPROCS takes the scheduler lock.
	p.f, p.spin = f, runtime.GOMAXPROCS(0) >= p.n
	p.pending.Store(int32(p.n - 1))
	p.bump()
	f(0)
	if p.spin && p.caller.wait(func() bool { return p.pending.Load() == 0 }) {
		return
	}
	// Park: set parkBit unless the count already reached zero. Once it
	// is set, the worker whose decrement leaves exactly parkBit signals.
	for {
		v := p.pending.Load()
		if v == 0 {
			return
		}
		if p.pending.CompareAndSwap(v, v|parkBit) {
			break
		}
	}
	<-p.done
}

// spinner is one waiter's spin history.
type spinner struct{ missShare uint32 }

// wait polls ready for the spin budget and reports whether it came true.
// It returns false at once, without polling, while the share of recent
// spins that ran out is over missLimit.
func (s *spinner) wait(ready func() bool) bool {
	if s.missShare > missLimit {
		s.missShare -= s.missShare >> missDecay
		return false
	}
	for i := 1; i <= spinPolls; i++ {
		if ready() {
			s.missShare -= s.missShare >> missShift
			return true
		}
		if i%spinYield == 0 {
			runtime.Gosched()
		}
	}
	s.missShare += (1<<16 - s.missShare) >> missShift
	return false
}

// Close stops the worker goroutines and returns once they have exited.
// Idempotent; the pool must be idle (no Run in flight).
func (p *Pool) Close() {
	p.closeOnce.Do(func() {
		p.closed.Store(true)
		p.bump()
		p.exited.Wait()
	})
}
