package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"testing"
)

// pb is a minimal protobuf writer for building fixture profiles.
type pb struct{ bytes.Buffer }

func (p *pb) varint(v uint64) {
	for v >= 0x80 {
		p.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	p.WriteByte(byte(v))
}

func (p *pb) uint(num int, v uint64) { p.varint(uint64(num)<<3 | 0); p.varint(v) }

func (p *pb) bytes(num int, b []byte) {
	p.varint(uint64(num)<<3 | 2)
	p.varint(uint64(len(b)))
	p.Write(b)
}

func (p *pb) packed(num int, vs ...uint64) {
	var q pb
	for _, v := range vs {
		q.varint(v)
	}
	p.bytes(num, q.Bytes())
}

// fixtureProfile builds a gzipped CPU profile with three functions and
// four samples (weights in ns):
//
//	700  allocateVCs ← Router.Tick ← Network.Tick   (packed location ids)
//	200  runtime.mapaccess ← cache.(*MSHR).Find     (unpacked location ids)
//	 60  runtime.gcBgMarkWorker
//	 40  NI.Tick inlined into Network.Tick          (one location, two lines)
func fixtureProfile(t *testing.T) []byte {
	t.Helper()
	strs := []string{"",
		"delrep/internal/noc.(*Router).allocateVCs", // 1
		"delrep/internal/noc.(*Router).Tick",        // 2
		"delrep/internal/noc.(*Network).Tick",       // 3
		"runtime.mapaccess2_fast64",                 // 4
		"delrep/internal/cache.(*MSHR).Find",        // 5
		"runtime.gcBgMarkWorker",                    // 6
		"delrep/internal/noc.(*NI).Tick",            // 7
		"samples", "count", "cpu", "nanoseconds",
	}
	var p pb
	sample := func(packed bool, weight uint64, locs ...uint64) {
		var s pb
		if packed {
			s.packed(1, locs...)
		} else {
			for _, l := range locs {
				s.uint(1, l)
			}
		}
		s.packed(2, 1, weight)
		p.bytes(2, s.Bytes())
	}
	sample(true, 700, 1, 2, 3)
	sample(false, 200, 4, 5)
	sample(true, 60, 6)
	sample(true, 40, 7)
	// Locations 1..6 hold one function each (id = string index);
	// location 7 holds NI.Tick inlined into Network.Tick.
	for id := uint64(1); id <= 7; id++ {
		var l pb
		l.uint(1, id)
		fns := []uint64{id}
		if id == 7 {
			fns = []uint64{7, 3}
		}
		for _, f := range fns {
			var line pb
			line.uint(1, f)
			line.uint(2, 10)
			l.bytes(4, line.Bytes())
		}
		p.bytes(4, l.Bytes())
	}
	for id := uint64(1); id <= 7; id++ {
		var f pb
		f.uint(1, id)
		f.uint(2, id)
		p.bytes(5, f.Bytes())
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zw.Write(p.Bytes())
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return z.Bytes()
}

func TestParseProfile(t *testing.T) {
	stacks, err := parseProfile(fixtureProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) != 4 {
		t.Fatalf("got %d stacks, want 4", len(stacks))
	}
	if s := stacks[0]; s.weight != 700 || len(s.funcs) != 3 || s.funcs[0] != "delrep/internal/noc.(*Router).allocateVCs" {
		t.Errorf("stack 0 = %+v", s)
	}
	if s := stacks[1]; s.weight != 200 || len(s.funcs) != 2 || s.funcs[1] != "delrep/internal/cache.(*MSHR).Find" {
		t.Errorf("unpacked stack 1 = %+v", s)
	}
	if s := stacks[3]; len(s.funcs) != 2 || s.funcs[0] != "delrep/internal/noc.(*NI).Tick" || s.funcs[1] != "delrep/internal/noc.(*Network).Tick" {
		t.Errorf("inlined stack 3 = %+v, want NI.Tick then Network.Tick", s)
	}
}

func TestAttributeGroupsByModule(t *testing.T) {
	stacks, err := parseProfile(fixtureProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	modules, named := attribute(stacks)
	want := map[string]float64{
		"noc":   0.74, // allocateVCs stack + the NI stack
		"cache": 0.20, // map access charged to its delrep caller
	}
	for m, w := range want {
		if math.Abs(modules[m]-w) > 1e-9 {
			t.Errorf("modules[%s] = %g, want %g", m, modules[m], w)
		}
	}
	if len(modules) != len(want) {
		t.Errorf("modules = %v, want only %v (GC samples have no module)", modules, want)
	}
	wantNamed := map[string]float64{
		"noc.vc_alloc_frac":  0.70,
		"noc.switch_frac":    0,
		"noc.ni_frac":        0.04,
		"runtime.gc_frac":    0.06,
		"runtime.sched_frac": 0,
	}
	for m, w := range wantNamed {
		if math.Abs(named[m]-w) > 1e-9 {
			t.Errorf("named[%s] = %g, want %g", m, named[m], w)
		}
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"delrep/internal/noc.(*Router).Tick":    "noc",
		"delrep/internal/core.NewSystem":        "core",
		"delrep/internal/lint/dataflow.Run":     "lint",
		"delrep/internal/par.(*Pool).Run.func1": "par",
		"runtime.mallocgc":                      "",
		"delrep/perfbench.main":                 "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseProfileRejectsTruncated(t *testing.T) {
	var p pb
	p.varint(2<<3 | 2)
	p.varint(50) // claims 50 bytes, has none
	if _, err := parseProfile(p.Bytes()); err == nil {
		t.Error("truncated profile parsed without error")
	}
}
