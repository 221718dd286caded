package noc

import (
	"math/rand"
	"testing"

	"delrep/internal/config"
)

// allows reports whether output (port, vc) — encoded as a flat bit
// index — is a routing candidate for the buffered head packet.
func (b *vcBuf) allows(bit int) bool {
	return b.mask[bit>>6]&(1<<(uint(bit)&63)) != 0
}

// refAllocateVCs is the scan allocator that the requester bitsets
// replaced, kept as the reference: each free output VC scans every
// input VC from the port's rotating pointer for the first head of the
// current priority whose candidate bitmap allows it. It reads only the
// candidate bitmaps, never reqBy.
func refAllocateVCs(r *Router) {
	numVCs := r.net.numVCs
	var waiting [3]int
	headPrio := r.headPrio
	for idx := range r.inFlat {
		b := &r.inFlat[idx]
		if b.q.Len() == 0 || b.outPort >= 0 {
			headPrio[idx] = -1
			continue
		}
		head := b.q.Front()
		if !b.routed {
			for _, c := range r.net.topo.Route(r.net, r.ID, head.Pkt, nil) {
				for vc := c.VCLo; vc <= c.VCHi; vc++ {
					bit := c.Port*numVCs + vc
					b.mask[bit>>6] |= 1 << (uint(bit) & 63)
				}
			}
			b.routed = true
		}
		prio := head.Pkt.Prio
		headPrio[idx] = int8(prio)
		waiting[prio]++
	}
	total := r.nports * numVCs
	for prio := int(PrioCPU); prio >= int(PrioGPU); prio-- {
		if waiting[prio] == 0 {
			continue
		}
		granted := 0
		for op := 0; op < r.nports; op++ {
			out := &r.out[op]
			if !out.connected {
				continue
			}
			for ovc := range out.credits {
				if out.owner[ovc] != ownerFree || out.credits[ovc] <= 0 {
					continue
				}
				bit := op*numVCs + ovc
				for k := 0; k < total; k++ {
					idx := r.vaOutPtr[op] + k
					if idx >= total {
						idx -= total
					}
					if int(headPrio[idx]) != prio {
						continue
					}
					b := &r.inFlat[idx]
					if !b.allows(bit) {
						continue
					}
					out.owner[ovc] = ownerKey(idx/numVCs, idx%numVCs)
					b.outPort = op
					b.outVC = ovc
					headPrio[idx] = -1
					r.vaOutPtr[op] = idx + 1
					if r.vaOutPtr[op] == total {
						r.vaOutPtr[op] = 0
					}
					granted++
					break
				}
				if granted == waiting[prio] {
					break
				}
			}
			if granted == waiting[prio] {
				break
			}
		}
	}
}

// vaCase is one router shape for the differential test.
type vaCase struct {
	name   string
	topo   func() Topology
	nodes  int
	router int
	noc    func() config.NoC
}

func vaCases() []vaCase {
	cdr := MeshPolicy{Alg: config.RoutingCDR, ReqOrder: config.OrderXY, RepOrder: config.OrderXY}
	wideMesh := func() config.NoC {
		c := defaultNoC()
		c.VCsPerClass = 16 // 5 ports x 16 VCs = 80 input VCs: two words
		return c
	}
	shared := func() config.NoC {
		c := defaultNoC()
		c.SharedPhys, c.ReqVCs, c.RepVCs = true, 2, 2
		return c
	}
	return []vaCase{
		{"mesh-center", func() Topology { return NewMesh(8, 8, cdr) }, 64, 27, defaultNoC},
		{"mesh-corner", func() Topology { return NewMesh(8, 8, cdr) }, 64, 0, defaultNoC},
		{"mesh-wide", func() Topology { return NewMesh(4, 4, cdr) }, 16, 5, wideMesh},
		{"crossbar64", func() Topology { return NewCrossbar(64) }, 64, 0, defaultNoC},
		{"crossbar100", func() Topology { return NewCrossbar(100) }, 100, 0, defaultNoC},
		{"crossbar64-shared", func() Topology { return NewCrossbar(64) }, 64, 0, shared},
		{"fbfly", func() Topology { return NewFlattenedButterfly(8, 8, config.OrderXY, config.OrderYX) }, 64, 9, defaultNoC},
	}
}

// vaPerturb advances a router to its next random allocation state:
// some granted packets depart (releasing their output VC), new heads
// arrive (pre-routed with random candidates or left for the real
// routing function), credits are redrawn, and output pointers are
// moved, often onto word boundaries. Two routers driven with the same
// rng seed end in identical states.
func vaPerturb(r *Router, rng *rand.Rand, nodes int, nextID *uint64) {
	numVCs := r.net.numVCs
	total := len(r.inFlat)
	for idx := range r.inFlat {
		b := &r.inFlat[idx]
		if b.outPort >= 0 && rng.Intn(3) == 0 {
			r.out[b.outPort].owner[b.outVC] = ownerFree
			b.outPort, b.outVC = -1, -1
			b.clearRoute()
			for b.q.Len() > 0 {
				b.q.PopFront()
				r.buffered--
				r.ctr.bufFlits--
			}
		}
		if b.q.Len() > 0 || rng.Intn(5) < 2 {
			continue
		}
		*nextID++
		pkt := &Packet{
			ID: *nextID, Src: rng.Intn(nodes), Dst: rng.Intn(nodes),
			Class: Class(rng.Intn(2)), Prio: Priority(rng.Intn(3)), SizeFlits: 1 + rng.Intn(5),
		}
		r.pushFlit(idx/numVCs, idx%numVCs, Flit{Pkt: pkt})
		if rng.Intn(4) == 0 {
			continue // routed by allocateVCs itself
		}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			port, lo := rng.Intn(r.nports), rng.Intn(numVCs)
			hi := lo + rng.Intn(numVCs-lo)
			for vc := lo; vc <= hi; vc++ {
				bit := port*numVCs + vc
				if !b.allows(bit) {
					b.mask[bit>>6] |= 1 << (uint(bit) & 63)
					r.reqBy[bit*r.reqWords+idx>>6] |= 1 << (uint(idx) & 63)
				}
			}
		}
		b.routed = true
	}
	for p := range r.out {
		for v := range r.out[p].credits {
			if rng.Intn(4) == 0 {
				r.out[p].credits[v] = 0
			} else {
				r.out[p].credits[v] = 1 + rng.Intn(r.net.bufDepth)
			}
		}
		switch rng.Intn(4) {
		case 0:
			r.vaOutPtr[p] = rng.Intn(total)
		case 1:
			// Just below, on, or past a word boundary (or the end).
			w := rng.Intn(r.reqWords) << 6
			r.vaOutPtr[p] = (w + 61 + rng.Intn(5)) % total
		}
	}
}

// TestBitsetVCAllocMatchesScan drives the bitset allocator and the
// reference scan allocator over identical random router states and
// requires identical grants, output pointers, and owners after every
// round, with the maintained requester sets matching a rebuild from
// the candidate bitmaps.
func TestBitsetVCAllocMatchesScan(t *testing.T) {
	for _, tc := range vaCases() {
		build := func() *Router {
			net := NewNetwork("va", tc.topo(), tc.noc(), tc.nodes, Params{
				InjCapCore: 8, InjCapMem: 8, EjCap: 24, AsmCap: 4,
			})
			return net.Routers[tc.router]
		}
		grants, wrapped := 0, 0
		for seed := int64(1); seed <= 20; seed++ {
			got, want := build(), build()
			if seed == 1 {
				t.Logf("%s: %d input VCs, %d words", tc.name, len(got.inFlat), got.reqWords)
			}
			rngGot, rngWant := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			var idGot, idWant uint64
			for round := 0; round < 30; round++ {
				vaPerturb(got, rngGot, tc.nodes, &idGot)
				vaPerturb(want, rngWant, tc.nodes, &idWant)
				before := append([]int(nil), want.vaOutPtr...)
				got.allocateVCs()
				refAllocateVCs(want)
				for idx := range want.inFlat {
					g, w := &got.inFlat[idx], &want.inFlat[idx]
					if g.outPort != w.outPort || g.outVC != w.outVC {
						t.Fatalf("%s seed %d round %d: input VC %d granted (%d,%d), scan grants (%d,%d)",
							tc.name, seed, round, idx, g.outPort, g.outVC, w.outPort, w.outVC)
					}
				}
				for p := range want.out {
					if got.vaOutPtr[p] != want.vaOutPtr[p] {
						t.Fatalf("%s seed %d round %d: vaOutPtr[%d] = %d, scan gives %d",
							tc.name, seed, round, p, got.vaOutPtr[p], want.vaOutPtr[p])
					}
					if got.vaOutPtr[p] != before[p] {
						grants++
						if got.vaOutPtr[p] <= before[p] {
							wrapped++
						}
					}
					for v := range want.out[p].owner {
						if got.out[p].owner[v] != want.out[p].owner[v] {
							t.Fatalf("%s seed %d round %d: owner of (%d,%d) = %#x, scan gives %#x",
								tc.name, seed, round, p, v, got.out[p].owner[v], want.out[p].owner[v])
						}
					}
				}
				if err := got.checkRequesters(); err != nil {
					t.Fatalf("%s seed %d round %d: %v", tc.name, seed, round, err)
				}
			}
		}
		if grants < 100 || wrapped == 0 {
			t.Fatalf("%s: weak coverage: %d pointer moves, %d wraps", tc.name, grants, wrapped)
		}
	}
}

func TestFirstRequesterWrapsAcrossWords(t *testing.T) {
	all := []uint64{^uint64(0), ^uint64(0), ^uint64(0)}
	cases := []struct {
		req   []uint64
		start int
		want  int
	}{
		{[]uint64{0, 0, 0}, 5, -1},
		{[]uint64{1 << 3, 0, 0}, 3, 3},
		{[]uint64{1 << 3, 0, 0}, 4, 3},          // wraps to the start word's low bits
		{[]uint64{1 << 3, 0, 1 << 7}, 4, 135},   // later word before the wrap
		{[]uint64{0, 1, 0}, 63, 64},             // crosses one word boundary
		{[]uint64{1 << 63, 0, 0}, 64, 63},       // wraps all the way round
		{[]uint64{1 << 63, 1 << 0, 0}, 127, 63}, // start past the last set bit
		{[]uint64{0, 0, 1 << 10}, 138, 138},
	}
	for _, c := range cases {
		if got := firstRequester(c.req, all, c.start); got != c.want {
			t.Errorf("firstRequester(%#x, start %d) = %d, want %d", c.req, c.start, got, c.want)
		}
	}
	// The waiting set filters requesters out.
	if got := firstRequester([]uint64{1 << 3, 1 << 2, 0}, []uint64{0, ^uint64(0), 0}, 0); got != 66 {
		t.Errorf("masked search = %d, want 66", got)
	}
}

// TestRequesterCheckCatchesDrift corrupts one requester bit and
// requires the DebugChecks tick to panic.
func TestRequesterCheckCatchesDrift(t *testing.T) {
	net := twoNodeNet()
	net.DebugChecks = true
	net.NI(0).Inject(&Packet{ID: 1, Src: 0, Dst: 1, Class: ClassReply, SizeFlits: 12})
	for i := 0; i < 100 && net.Routers[0].BufferedFlits() == 0; i++ {
		net.Tick()
	}
	r := net.Routers[0]
	if err := r.checkRequesters(); err != nil {
		t.Fatal(err)
	}
	r.reqBy[len(r.reqBy)-1] |= 1
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on a corrupted requester set")
		}
	}()
	net.Tick()
}
