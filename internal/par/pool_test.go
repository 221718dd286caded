package par

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// waitFor polls cond until it holds, failing the test after a generous
// deadline. It waits on an observable event, never on a fixed sleep.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// waitGoroutines polls until the process goroutine count drops back to
// at most base. Close returns once the workers have run their last
// statement, so the grace period only covers the runtime reaping them.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines leaked: %d alive, want <= %d\n%s", n, base, buf)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// runRounds dispatches rounds Runs on p. Each section spins for
// body(round, w) iterations, then records the round in its own plain
// slot; the caller checks every slot after each Run, so a missed,
// doubled or unordered section fails here or under -race.
func runRounds(t *testing.T, p *Pool, rounds int, body func(round, w int) int) {
	t.Helper()
	last := make([]int, p.Size())
	runs := make([]int, p.Size())
	for w := range last {
		last[w] = -1
	}
	sink := make([]int, p.Size())
	for round := 0; round < rounds; round++ {
		p.Run(func(w int) {
			acc := 0
			for i := body(round, w); i > 0; i-- {
				acc += i ^ w
			}
			sink[w] += acc
			last[w] = round
			runs[w]++
		})
		for w := range last {
			if last[w] != round || runs[w] != round+1 {
				t.Fatalf("N=%d round %d: worker %d last ran round %d, %d runs in total",
					p.Size(), round, w, last[w], runs[w])
			}
		}
	}
}

// TestPoolVaryingSections runs many dispatches whose section lengths
// differ per worker and per round, so every worker is by turns the
// last to finish and the caller is by turns early and late.
func TestPoolVaryingSections(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		p := NewPool(n)
		runRounds(t, p, 3000, func(round, w int) int {
			return (round*31 + w*17) % 64 * 50
		})
		p.Close()
	}
}

// TestPoolOversubscribed runs a pool larger than GOMAXPROCS. Waiters
// must park at once instead of polling a P another worker needs, and
// every worker must still run exactly once per Run.
func TestPoolOversubscribed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, n := range []int{2, 4} {
		p := NewPool(n)
		runRounds(t, p, 2000, func(round, w int) int { return (round + w) % 8 * 20 })
		if p.spin {
			t.Fatalf("N=%d pool spins under GOMAXPROCS(1)", n)
		}
		p.Close()
	}
}

// TestPoolWakesParkedWorkers separates rounds by a pause longer than
// the spin budget: every round starts with all workers parked on the
// condition variable, so Run's broadcast is what wakes them. The
// sections of workers 1..n-1 also outlast the caller's spin, so the
// caller parks on the done channel and the last worker must signal it.
func TestPoolWakesParkedWorkers(t *testing.T) {
	const n = 3
	p := NewPool(n)
	defer p.Close()
	for round := 0; round < 20; round++ {
		waitFor(t, "all workers to park", func() bool { return p.parked.Load() == n-1 })
		var slept [n]bool
		p.Run(func(w int) {
			if w > 0 && round%2 == 1 {
				time.Sleep(time.Millisecond)
			}
			slept[w] = true
		})
		for w, ok := range slept {
			if !ok {
				t.Fatalf("round %d: worker %d did not run", round, w)
			}
		}
		if v := p.pending.Load() &^ parkBit; v != 0 {
			t.Fatalf("round %d: pending count %d after Run, want 0", round, v)
		}
		if len(p.done) != 0 {
			t.Fatalf("round %d: stale done signal left after Run", round)
		}
	}
}

// TestPoolCloseReleasesWorkers closes pools whose workers are spinning
// and pools whose workers are parked, closes each twice, and requires
// every worker goroutine to be gone afterwards.
func TestPoolCloseReleasesWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, parked := range []bool{false, true} {
		for _, n := range []int{1, 2, 4, 8} {
			p := NewPool(n)
			p.Run(func(int) {})
			if parked {
				waitFor(t, "all workers to park", func() bool { return int(p.parked.Load()) == n-1 })
			}
			p.Close()
			p.Close()
		}
	}
	waitGoroutines(t, base)
}

// TestPoolRunZeroAllocs pins the dispatch as allocation-free: the
// simulator calls Run twice per simulated cycle.
func TestPoolRunZeroAllocs(t *testing.T) {
	for _, n := range []int{2, 4} {
		p := NewPool(n)
		f := func(int) {}
		if allocs := testing.AllocsPerRun(1000, func() { p.Run(f) }); allocs != 0 {
			t.Fatalf("N=%d: Run allocates %.1f times per call, want 0", n, allocs)
		}
		p.Close()
	}
}

// TestSpinnerBacksOff pins the adaptive spin: occasional run-outs, as
// on a host with free CPUs, never stop a waiter spinning; a run of
// them, as when other processes hold the CPUs, makes it park without
// polling until its history decays, and then it probes again.
func TestSpinnerBacksOff(t *testing.T) {
	polls := 0
	never := func() bool { polls++; return false }
	always := func() bool { return true }

	var s spinner
	for i := 0; i < 2000; i++ {
		if i%40 == 0 {
			s.wait(never)
		} else if !s.wait(always) {
			t.Fatalf("wait %d: a 1-in-40 run-out rate stopped the spin", i)
		}
	}

	s = spinner{}
	runOuts := 0
	for s.missShare <= missLimit {
		s.wait(never)
		runOuts++
	}
	if runOuts < 2 {
		t.Fatalf("one run-out stopped the spin")
	}
	skips := 0
	for polls = 0; polls == 0; skips++ {
		if s.wait(never) {
			t.Fatal("wait reported success without ready")
		}
		if skips > 200 {
			t.Fatal("spinner never probes again")
		}
	}
	if skips < 2 {
		t.Fatalf("spinner probed again after %d skipped waits", skips)
	}
}

// BenchmarkPoolRun measures the round trip of one empty dispatch — the
// per-dispatch cost the barrier adds to every parallel cycle, apart
// from any simulation work. Back to back (gap=0) nothing ever parks; in
// the simulator each dispatch follows a serial commit of several
// microseconds, long enough for an idle goroutine's thread to sleep, so
// gap=10us spins the caller that long between dispatches. Subtract the
// gap to read the dispatch cost.
func BenchmarkPoolRun(b *testing.B) {
	for _, n := range []int{2, 4} {
		for _, gap := range []time.Duration{0, 10 * time.Microsecond} {
			b.Run(fmt.Sprintf("N=%d/gap=%dus", n, gap.Microseconds()), func(b *testing.B) {
				p := NewPool(n)
				defer p.Close()
				f := func(int) {}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for start := time.Now(); time.Since(start) < gap; {
					}
					p.Run(f)
				}
			})
		}
	}
}
