package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the CPU profiles runtime/pprof writes (gzip-compressed
// profile.proto) with the standard library alone, and splits the sampled
// host time into per-module buckets by leaf frame.

// profSample is one profile sample: its stack as function names, leaf
// first, and its CPU time.
type profSample struct {
	stack []string
	value int64
}

// errTruncated reports a protobuf field that runs past its message.
var errTruncated = errors.New("profile: truncated protobuf")

// pbField walks the fields of one protobuf message, calling fn with each
// field number, wire type, varint value (wire type 0) and payload (wire
// type 2).
func pbField(b []byte, fn func(num int, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(b) < size {
				return errTruncated
			}
			b = b[size:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// uvarint decodes a base-128 varint, returning the bytes consumed (0 when
// b ends first).
func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, 0
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// repeatedUint appends a repeated integer field in either encoding:
// packed (wire type 2) or one varint per field (wire type 0).
func repeatedUint(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			return dst, errTruncated
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}

// parseProfile decodes a gzip-compressed profile.proto into samples
// valued by the "cpu" sample type.
func parseProfile(raw []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct{ locs, vals []uint64 }
	var (
		types   []uint64 // string index of each sample type's name
		samples []sample
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64]uint64{}   // function id -> string index of its name
		strs    []string
	)
	err = pbField(b, func(num, wire int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type
			return pbField(data, func(num, _ int, v uint64, _ []byte) error {
				if num == 1 {
					types = append(types, v)
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := pbField(data, func(num, wire int, v uint64, d []byte) (err error) {
				switch num {
				case 1:
					s.locs, err = repeatedUint(s.locs, wire, v, d)
				case 2:
					s.vals, err = repeatedUint(s.vals, wire, v, d)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbField(data, func(num, _ int, v uint64, d []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return pbField(d, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := pbField(data, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	col := len(types) - 1
	for i, t := range types {
		if str(t) == "cpu" {
			col = i
		}
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if col < 0 || col >= len(s.vals) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		ps := profSample{value: int64(s.vals[col])}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				ps.stack = append(ps.stack, str(funcs[f]))
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// gcRoots are frames under which every sample counts as garbage
// collection, wherever its leaf is.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

// allocPrefixes are the runtime's allocation path: malloc and the memory
// clearing it does.
var allocPrefixes = []string{
	"runtime.mallocgc", "runtime.memclrNoHeapPointers", "runtime.newobject",
	"runtime.makeslice", "runtime.growslice", "runtime.nextFreeFast",
	"runtime.heapSetType", "runtime.(*mcache)", "runtime.(*mcentral)",
	"runtime.(*mheap)", "runtime.(*mspan)",
}

// pkgOf returns the package path of a Go symbol name such as
// "iceclave/internal/mee.(*Traffic).access".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// leafBucket names where a sample's host time goes: "gc", "alloc", "sync",
// or the package path of its leaf frame.
func leafBucket(stack []string) string {
	if len(stack) == 0 {
		return "unknown"
	}
	for _, f := range stack {
		if gcRoots[f] {
			return "gc"
		}
	}
	for _, p := range allocPrefixes {
		if strings.HasPrefix(stack[0], p) {
			return "alloc"
		}
	}
	switch pkg := pkgOf(stack[0]); pkg {
	case "sync", "sync/atomic", "internal/sync":
		return "sync"
	default:
		return pkg
	}
}

// leafShares returns each bucket's share of the profile's CPU time in
// percent.
func leafShares(samples []profSample) map[string]float64 {
	var total int64
	by := make(map[string]int64)
	for _, s := range samples {
		by[leafBucket(s.stack)] += s.value
		total += s.value
	}
	out := make(map[string]float64, len(by))
	for k, v := range by {
		if total > 0 {
			out[k] = 100 * float64(v) / float64(total)
		}
	}
	return out
}

// cpuMetrics folds the leaf shares into the declared cpu.<bucket> metrics:
// a simulator package keeps its own bucket when one is declared, any other
// runtime frame goes to runtime, and everything else to other.
func cpuMetrics(shares map[string]float64, m map[string]float64) {
	declared := make(map[string]bool, len(cpuBuckets))
	for _, b := range cpuBuckets {
		declared[b] = true
	}
	for key, share := range shares {
		b := "other"
		switch {
		case key == "gc" || key == "alloc" || key == "sync":
			b = key
		case key == "runtime" || strings.HasPrefix(key, "internal/runtime/") || strings.HasPrefix(key, "runtime/"):
			b = "runtime"
		case strings.HasPrefix(key, "iceclave/internal/"):
			if name := strings.TrimPrefix(key, "iceclave/internal/"); declared[name] {
				b = name
			}
		}
		m["cpu."+b] += share
	}
}
