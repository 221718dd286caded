package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads a runtime/pprof CPU profile (gzipped profile.proto)
// without third-party packages and folds its samples into the shares
// the benchmark reports per layer. Only the fields the grouping needs
// are decoded: samples (location ids, values), locations (inlined
// line → function ids), functions (name) and the string table.

// stack is one profile sample: function names leaf first, and its
// weight (CPU nanoseconds, the last sample value).
type stack struct {
	funcs  []string
	weight int64
}

// parseProfile decodes a gzipped (or raw) profile.proto.
func parseProfile(data []byte) ([]stack, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile gzip: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile gzip: %w", err)
		}
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []sample
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
		funcs   = map[uint64]int64{}    // function id → name string index
		strs    []string
	)
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendUints(s.locs, wire, v, b)
				case 2:
					for _, u := range appendUints(nil, wire, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fids []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fids
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	name := func(fid uint64) string {
		if i, ok := funcs[fid]; ok && i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return "?"
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		st := stack{weight: s.values[len(s.values)-1]}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				st.funcs = append(st.funcs, name(f))
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// appendUints decodes a repeated integer field in either packed
// (length-delimited) or unpacked (one varint) form.
func appendUints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := varint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type and either its integer value (varint, fixed) or
// its bytes (length-delimited).
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = varint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

func varint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, -1
}

// modulePrefix is the import-path prefix of the repository's modules.
const modulePrefix = "delrep/internal/"

// moduleOf returns the repository module a function belongs to
// ("noc" for delrep/internal/noc.(*Router).Tick), or "" for functions
// outside delrep/internal.
func moduleOf(fn string) string {
	if !strings.HasPrefix(fn, modulePrefix) {
		return ""
	}
	rest := fn[len(modulePrefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// cumulative names the functions whose cumulative share (any frame on
// the stack) is reported, by metric name.
var cumulative = map[string][]string{
	"noc.vc_alloc_frac": {"delrep/internal/noc.(*Router).allocateVCs"},
	"noc.switch_frac":   {"delrep/internal/noc.(*Router).switchAllocAndTraverse"},
	// Network-interface work: every NI method.
	"noc.ni_frac": {"delrep/internal/noc.(*NI)."},
	// Scheduler park/wake and the OS futex behind it.
	"runtime.sched_frac": {
		"runtime.schedule", "runtime.findRunnable", "runtime.park_m",
		"runtime.gopark", "runtime.futex", "runtime.notesleep",
		"runtime.stopm", "runtime.mPark", "runtime.goready",
	},
	// Garbage collection: background marking, assists, sweeping.
	"runtime.gc_frac": {
		"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
		"runtime.bgsweep", "runtime.sweepone", "runtime.markroot",
		"runtime.scanobject", "runtime.gcStart",
	},
}

// attribute folds samples into shares of total weight: for each
// repository module, the samples whose innermost delrep/internal frame
// lies in it (so runtime helpers a module calls, such as map hashing or
// memmove, count towards that module), and for each metric in
// cumulative, the samples with a matching frame anywhere on the stack.
// Prefixes ending in "." match a whole receiver's method set.
func attribute(stacks []stack) (modules, named map[string]float64) {
	modules, named = map[string]float64{}, map[string]float64{}
	var total int64
	for _, s := range stacks {
		total += s.weight
	}
	if total == 0 {
		return modules, named
	}
	for _, s := range stacks {
		w := float64(s.weight) / float64(total)
		for _, fn := range s.funcs {
			if m := moduleOf(fn); m != "" {
				modules[m] += w
				break
			}
		}
		for metric, prefixes := range cumulative {
			if stackMatches(s.funcs, prefixes) {
				named[metric] += w
			}
		}
	}
	return modules, named
}

func stackMatches(funcs, patterns []string) bool {
	for _, fn := range funcs {
		for _, p := range patterns {
			if fn == p || (strings.HasSuffix(p, ".") && strings.HasPrefix(fn, p)) {
				return true
			}
		}
	}
	return false
}
