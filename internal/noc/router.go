package noc

import (
	"fmt"
	"math/bits"

	"delrep/internal/fifo"
)

// vcBuf is the input buffer state of one virtual channel: a fixed-
// capacity flit ring (sized to bufDepth — credits bound occupancy)
// plus the routing/allocation state of the packet currently at its
// front. Routing candidates are folded into a per-(port,vc) bitmap.
// VC allocation does not read it: while the head waits, each candidate
// bit is mirrored as this VC's bit in the router's transposed request
// matrix (Router.reqBy), and the bitmap is what clears those bits again
// when the head is granted.
type vcBuf struct {
	q       fifo.Ring[Flit]
	mask    []uint64 // bit (port*numVCs + vc) set: candidate output VC
	routed  bool     // route computed for the current head packet
	outPort int
	outVC   int
}

// clearRoute drops the head packet's routing state (tail departed).
func (b *vcBuf) clearRoute() {
	for i := range b.mask {
		b.mask[i] = 0
	}
	b.routed = false
}

// outPort is the output side of a router port: per-VC downstream
// credits, per-VC wormhole ownership, and the attached link or NI.
type outPort struct {
	credits   []int
	owner     []int32 // owner key (inPort<<8|inVC) holding the VC, -1 free
	link      *wire   // inter-router connection (nil otherwise)
	eject     *NI     // local ejection target (nil otherwise)
	connected bool    // link or eject present
	sent      int64   // flits transferred (utilization statistic)
}

// wire records where an output port's flits are delivered.
type wire struct {
	to     int // destination router
	toPort int
}

// feeder records where an input port's flits come from, for credit return.
type feeder struct {
	r    int
	port int
	ok   bool // false for local (NI-fed) or unconnected inputs
}

const ownerFree = int32(-1)

func ownerKey(port, vc int) int32 { return int32(port<<8 | vc) }

// Router is an input-queued virtual-channel router with credit-based
// wormhole flow control, per-class VC ranges, and separable switch
// allocation with CPU-priority arbitration (a one-iteration
// iSLIP-style allocator with rotating pointers).
//
// The switch-allocation input-port pointer is not stored: it advances
// exactly once per network cycle since construction, so it is
// recomputed from the cycle count. That keeps it bit-identical even
// when idle routers skip their tick entirely (see Network.Tick).
type Router struct {
	net    *Network
	tl     *tile        // owning tile (nil when the network is serial)
	ctr    *netCounters // statistics sink: the network's canonical block, or the tile's delta
	ID     int
	nports int
	// inFlat is the contiguous backing store for all input VC buffers,
	// indexed port*numVCs+vc; in[p] is a subslice view of it. The
	// allocator inner loops index inFlat directly so a probe is one
	// bounds-checked load instead of a slice-of-slice chase.
	inFlat []vcBuf
	in     [][]vcBuf
	inFrom []feeder
	out    []outPort

	saInPtr  []int // per input port: rotating VC pointer
	vaOutPtr []int // per output port: rotating grant pointer (VC allocation)

	// reqBy is the transposed request matrix of VC allocation: for each
	// output VC (bit port*numVCs+vc) a reqWords-word bitset over input
	// VCs (indexed like inFlat), holding the routed input VCs that are
	// still waiting for an output VC and name this one as a candidate.
	// Bits are set when a head is routed and cleared when it is granted.
	reqBy    []uint64
	reqWords int

	// Scratch buffers reused every tick (allocated once here, never
	// on the tick path).
	inputUsed  []bool
	outputUsed []bool
	candBuf    []Candidate
	// waitSet holds, per priority, a reqWords-word bitset of the input
	// VCs whose head is waiting for an output VC this tick. VC
	// allocation rebuilds it in its classification pass and grants from
	// reqBy[output VC] & waitSet[prio].
	waitSet [3][]uint64
	// headPrio caches, per input VC (indexed port*numVCs+vc), the
	// priority of a head flit eligible for switch allocation, or -1.
	// Switch allocation classifies heads in a single scan and then
	// arbitrates over this byte array, instead of re-dereferencing ring
	// fronts and packet priorities in its rotating inner loop.
	headPrio []int8

	// buffered counts flits across all input VC rings; it drives the
	// active-set scheduler and the O(1) BufferedFlits/Quiet paths.
	buffered int

	// Adaptive routing state (see routing.go).
	foot map[int]int
	ewma []float64
}

func newRouter(net *Network, id, nports, numVCs, bufDepth int) *Router {
	r := &Router{
		net:        net,
		ctr:        &net.ctr,
		ID:         id,
		nports:     nports,
		in:         make([][]vcBuf, nports),
		inFrom:     make([]feeder, nports),
		out:        make([]outPort, nports),
		saInPtr:    make([]int, nports),
		vaOutPtr:   make([]int, nports),
		inputUsed:  make([]bool, nports),
		outputUsed: make([]bool, nports),
		candBuf:    make([]Candidate, 0, 4),
		headPrio:   make([]int8, nports*numVCs),
		ewma:       make([]float64, nports),
	}
	maskWords := (nports*numVCs + 63) / 64
	r.reqWords = maskWords
	r.reqBy = make([]uint64, nports*numVCs*maskWords)
	for p := range r.waitSet {
		r.waitSet[p] = make([]uint64, maskWords)
	}
	r.inFlat = make([]vcBuf, nports*numVCs)
	for p := 0; p < nports; p++ {
		r.in[p] = r.inFlat[p*numVCs : (p+1)*numVCs : (p+1)*numVCs]
		for v := 0; v < numVCs; v++ {
			b := &r.in[p][v]
			b.q.Init(bufDepth)
			b.mask = make([]uint64, maskWords)
			b.outPort, b.outVC = -1, -1
		}
		r.out[p] = outPort{
			credits: make([]int, numVCs),
			owner:   make([]int32, numVCs),
		}
		for v := range r.out[p].owner {
			r.out[p].owner[v] = ownerFree
		}
	}
	return r
}

// pushFlit appends a flit to input VC (port, vc), maintaining the
// router and network activity counters. All buffer insertions (link
// deliveries and local NI injection) go through here so the counters
// that gate idle routers cannot drift from the rings.
func (r *Router) pushFlit(port, vc int, f Flit) {
	r.in[port][vc].q.PushBack(f)
	r.buffered++
	r.ctr.bufFlits++
}

// sched queues a delivery through the network's serial delay ring or,
// in tiled mode, through the owning tile (which stages cross-tile
// deliveries for commit; see tile.go).
func (r *Router) sched(delay int, ev event) {
	if r.tl != nil {
		r.tl.schedule(delay, ev)
		return
	}
	r.net.schedule(delay, ev)
}

// acceptFlit places an arriving flit into an input VC buffer. Credits
// guarantee space; a violation indicates a flow-control bug.
func (r *Router) acceptFlit(port, vc int, f Flit) {
	if r.in[port][vc].q.Len() >= r.net.bufDepth {
		panic("noc: input buffer overflow (credit accounting bug)")
	}
	if f.Pkt.Trace != nil && f.Head() {
		f.Pkt.Trace.arrive(r.ID, r.net.now)
	}
	r.pushFlit(port, vc, f)
}

// tick runs one router cycle: route computation and VC allocation for
// waiting heads, then separable switch allocation, then switch/link
// traversal for the winners.
func (r *Router) tick() {
	if r.net.hare {
		r.updateEWMA()
	}
	if r.buffered == 0 {
		return
	}
	r.allocateVCs()
	if r.net.DebugChecks {
		if err := r.checkRequesters(); err != nil {
			panic("noc: VC allocation requester sets diverged: " + err.Error())
		}
	}
	r.switchAllocAndTraverse()
}

// allocateVCs performs route computation for new heads, then VC
// allocation with output-side round-robin arbitration: each free output
// VC grants to the next requesting input VC past the output port's
// rotating pointer. Higher priorities allocate first. Input-side
// iteration orders (fixed or cycle-stepped) are not used because they
// let persistent flows resonance-lock the allocator and starve traffic
// turning in from other dimensions at merge routers.
//
// The requesters of an output VC are reqBy[that VC] & waitSet[prio],
// and the grant is the first set bit at or after the pointer, wrapping
// around: the input VC a rotating scan over every input VC would reach
// first.
func (r *Router) allocateVCs() {
	numVCs := r.net.numVCs
	// Single classification pass: route any new head (registering it as
	// a requester of every candidate output VC), then record every VC
	// still waiting for an output in its priority's waiting set.
	var waiting [3]int
	for p := range r.waitSet {
		clear(r.waitSet[p])
	}
	for idx := range r.inFlat {
		b := &r.inFlat[idx]
		if b.q.Len() == 0 || b.outPort >= 0 {
			continue
		}
		head := b.q.Front()
		if !b.routed {
			if !head.Head() {
				panic("noc: body flit at VC front without allocated route")
			}
			w, in := idx>>6, uint64(1)<<(uint(idx)&63)
			cands := r.net.topo.Route(r.net, r.ID, head.Pkt, r.candBuf[:0])
			for _, c := range cands {
				for vc := c.VCLo; vc <= c.VCHi; vc++ {
					bit := c.Port*numVCs + vc
					b.mask[bit>>6] |= 1 << (uint(bit) & 63)
					r.reqBy[bit*r.reqWords+w] |= in
				}
			}
			b.routed = true
			r.candBuf = cands[:0] // keep a grown buffer for reuse
		}
		prio := head.Pkt.Prio
		r.waitSet[prio][idx>>6] |= 1 << (uint(idx) & 63)
		waiting[prio]++
	}
	for prio := int(PrioCPU); prio >= int(PrioGPU); prio-- {
		left := waiting[prio]
		wait := r.waitSet[prio]
		for op := 0; op < r.nports && left > 0; op++ {
			out := &r.out[op]
			if !out.connected {
				continue
			}
			for ovc := range out.credits {
				if out.owner[ovc] != ownerFree || out.credits[ovc] <= 0 {
					continue
				}
				bit := op*numVCs + ovc
				idx := firstRequester(r.reqBy[bit*r.reqWords:(bit+1)*r.reqWords], wait, r.vaOutPtr[op])
				if idx < 0 {
					continue
				}
				b := &r.inFlat[idx]
				out.owner[ovc] = ownerKey(idx/numVCs, idx%numVCs)
				b.outPort = op
				b.outVC = ovc
				r.dropRequests(idx, b)
				if pkt := b.q.Front().Pkt; pkt.Trace != nil {
					pkt.Trace.vcAlloc(r.ID, r.net.now)
				}
				r.vaOutPtr[op] = idx + 1
				if r.vaOutPtr[op] == len(r.inFlat) {
					r.vaOutPtr[op] = 0
				}
				left--
				if left == 0 {
					break
				}
			}
		}
	}
}

// dropRequests withdraws granted input VC idx from the requester sets
// of all its candidate output VCs, which also takes it out of the rest
// of this tick's allocation.
func (r *Router) dropRequests(idx int, b *vcBuf) {
	w, in := idx>>6, uint64(1)<<(uint(idx)&63)
	for mw, m := range b.mask {
		for m != 0 {
			bit := mw<<6 + bits.TrailingZeros64(m)
			m &= m - 1
			r.reqBy[bit*r.reqWords+w] &^= in
		}
	}
}

// firstRequester returns the first input VC set in both req and wait,
// searching cyclically from index start, or -1 if there is none.
func firstRequester(req, wait []uint64, start int) int {
	w0 := start >> 6
	if x := req[w0] & wait[w0] & (^uint64(0) << (uint(start) & 63)); x != 0 {
		return w0<<6 + bits.TrailingZeros64(x)
	}
	for w := w0 + 1; w < len(req); w++ {
		if x := req[w] & wait[w]; x != 0 {
			return w<<6 + bits.TrailingZeros64(x)
		}
	}
	// Wrapped: every set bit at or past start was ruled out above, so
	// the lowest remaining bit of words 0..w0 is the winner.
	for w := 0; w <= w0; w++ {
		if x := req[w] & wait[w]; x != 0 {
			return w<<6 + bits.TrailingZeros64(x)
		}
	}
	return -1
}

// checkRequesters rebuilds the transposed request matrix from the
// per-VC candidate bitmaps and returns an error naming the first
// output VC whose maintained requester set differs — the debug-mode
// cross-check for reqBy.
func (r *Router) checkRequesters() error {
	for bit := 0; bit < len(r.reqBy)/r.reqWords; bit++ {
		for w := 0; w < r.reqWords; w++ {
			var want uint64
			for i := 0; i < 64 && w<<6+i < len(r.inFlat); i++ {
				b := &r.inFlat[w<<6+i]
				if b.routed && b.outPort < 0 && b.mask[bit>>6]&(1<<(uint(bit)&63)) != 0 {
					want |= 1 << uint(i)
				}
			}
			if got := r.reqBy[bit*r.reqWords+w]; got != want {
				return fmt.Errorf("router %d output VC %d: requester word %d is %#x, candidate masks give %#x",
					r.ID, bit, w, got, want)
			}
		}
	}
	return nil
}

// switchAllocAndTraverse picks at most one flit per input port and per
// output port (separable allocation, priority classes first, rotating
// pointers for fairness within a class) and forwards the winners.
func (r *Router) switchAllocAndTraverse() {
	inputUsed, outputUsed := r.inputUsed, r.outputUsed
	for i := range inputUsed {
		inputUsed[i] = false
		outputUsed[i] = false
	}
	// Classify sendable heads once. A grant only mutates the granted
	// VC (popped and possibly released), and inputUsed masks that VC's
	// whole port for the rest of the allocation, so the snapshot stays
	// valid across the priority passes; output contention and credits
	// are still checked live in the loop.
	numVCs := r.net.numVCs
	headPrio := r.headPrio
	var present [3]int
	for idx := range r.inFlat {
		b := &r.inFlat[idx]
		if b.q.Len() == 0 || b.outPort < 0 {
			headPrio[idx] = -1
			continue
		}
		prio := b.q.Front().Pkt.Prio
		headPrio[idx] = int8(prio)
		present[prio]++
	}
	// The historical saPortPtr advanced by one every cycle regardless
	// of traffic; derive it from the cycle count so skipped idle ticks
	// cannot desynchronise it.
	base := int((r.net.now - 1) % int64(r.nports))
	for prio := int(PrioCPU); prio >= int(PrioGPU); prio-- {
		if present[prio] == 0 {
			continue
		}
		for i := 0; i < r.nports; i++ {
			p := base + i
			if p >= r.nports {
				p -= r.nports
			}
			if inputUsed[p] {
				continue
			}
			nvc := numVCs
			pv := p * numVCs
			for j := 0; j < nvc; j++ {
				v := r.saInPtr[p] + j
				if v >= nvc {
					v -= nvc
				}
				if int(headPrio[pv+v]) != prio {
					continue
				}
				b := &r.inFlat[pv+v]
				if outputUsed[b.outPort] {
					continue
				}
				if r.out[b.outPort].credits[b.outVC] <= 0 {
					continue
				}
				outPort := b.outPort
				r.traverse(p, v, b)
				inputUsed[p] = true
				outputUsed[outPort] = true
				r.saInPtr[p] = v + 1
				if r.saInPtr[p] == nvc {
					r.saInPtr[p] = 0
				}
				break
			}
		}
	}
}

// traverse moves the front flit of input VC (p, v) through the crossbar
// onto its allocated output, returning a credit upstream and releasing
// the wormhole channel on tails. The caller has verified eligibility.
func (r *Router) traverse(p, v int, b *vcBuf) {
	f := b.q.PopFront()
	r.buffered--
	r.ctr.bufFlits--
	op := &r.out[b.outPort]
	op.sent++
	r.ctr.flitHops++
	// Wormhole routing sends every flit of a packet over the head's
	// path, so the per-flit hop count is charged in one step when the
	// head traverses. This keeps the packet untouched during body/tail
	// traversals, which may run on another tile while the head is
	// already being processed downstream; the final value is identical.
	if f.Head() {
		f.Pkt.Hops += f.Pkt.SizeFlits
	}
	if f.Pkt.Trace != nil {
		if f.Head() {
			f.Pkt.Trace.depart(r.ID, r.net.now)
		}
		if f.Tail() {
			f.Pkt.Trace.tailDepart(r.ID, r.net.now)
		}
	}

	if op.link != nil {
		op.credits[b.outVC]--
		r.sched(r.net.hopDelay, event{
			kind: evFlit, router: op.link.to, port: op.link.toPort, vc: b.outVC, flit: f,
		})
	} else if op.eject != nil {
		op.credits[b.outVC]--
		op.eject.accept(f, b.outVC)
	}

	// Return a credit to whoever feeds this input port.
	if fd := r.inFrom[p]; fd.ok {
		r.sched(r.net.cfg.LinkDelay, event{
			kind: evCredit, router: fd.r, port: fd.port, vc: v,
		})
	}

	if f.Tail() {
		op.owner[b.outVC] = ownerFree
		b.outPort, b.outVC = -1, -1
		b.clearRoute()
	}
}

// BufferedFlits returns the number of flits currently buffered at the
// router (for invariant checks and drain detection). It reads the
// maintained counter; bufferedScan recomputes it from the rings.
func (r *Router) BufferedFlits() int { return r.buffered }

// bufferedScan recounts buffered flits from the VC rings — the
// debug-mode cross-check for the maintained counter.
func (r *Router) bufferedScan() int {
	n := 0
	for p := range r.in {
		for v := range r.in[p] {
			n += r.in[p][v].q.Len()
		}
	}
	return n
}
