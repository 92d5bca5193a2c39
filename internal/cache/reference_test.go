package cache

import "testing"

// reference is a deliberately naive set-associative LRU cache: each set is
// a slice of resident line numbers, most recently used first, and dirty
// lines are a map. It shares neither code nor layout with Cache, so
// FuzzCacheVsReference checks Cache against an independent model rather
// than against itself (mee.TrafficModel and mee.TrafficReference both sit
// on Cache, so their differential tests cannot catch a Cache bug).
type reference struct {
	lineSize uint64
	ways     int
	sets     [][]uint64      // per set: resident line numbers, most recent first
	dirty    map[uint64]bool // dirty resident line numbers
	stats    Stats
}

func newReference(lineSize uint64, sets, ways int) *reference {
	return &reference{lineSize: lineSize, ways: ways, sets: make([][]uint64, sets), dirty: map[uint64]bool{}}
}

// position returns the set of addr's line and the line's index in it, or -1.
func (r *reference) position(addr uint64) (line uint64, set, at int) {
	line = addr / r.lineSize
	set = int(line % uint64(len(r.sets)))
	for i, l := range r.sets[set] {
		if l == line {
			return line, set, i
		}
	}
	return line, set, -1
}

func (r *reference) access(addr uint64, write bool) (hit bool, ev Eviction, evicted bool) {
	line, set, at := r.position(addr)
	lines := r.sets[set]
	if at >= 0 {
		r.stats.Hits++
		lines = append(lines[:at], lines[at+1:]...)
	} else {
		r.stats.Misses++
		if len(lines) == r.ways {
			victim := lines[len(lines)-1]
			lines = lines[:len(lines)-1]
			ev, evicted = Eviction{Addr: victim * r.lineSize, Dirty: r.dirty[victim]}, true
			r.stats.Evictions++
			if ev.Dirty {
				r.stats.Writebacks++
			}
			delete(r.dirty, victim)
		}
	}
	r.sets[set] = append([]uint64{line}, lines...)
	if write {
		r.dirty[line] = true
	}
	return at >= 0, ev, evicted
}

func (r *reference) accessRun(addr uint64, write bool, n int64) (hit bool, ev Eviction, evicted bool) {
	for i := int64(0); i < n; i++ {
		h, e, v := r.access(addr, write)
		if i == 0 {
			hit, ev, evicted = h, e, v
		}
	}
	return hit, ev, evicted
}

func (r *reference) invalidate(addr uint64) (wasDirty bool) {
	line, set, at := r.position(addr)
	if at < 0 {
		return false
	}
	r.sets[set] = append(r.sets[set][:at], r.sets[set][at+1:]...)
	wasDirty = r.dirty[line]
	delete(r.dirty, line)
	return wasDirty
}

func (r *reference) contains(addr uint64) bool {
	_, _, at := r.position(addr)
	return at >= 0
}

func (r *reference) resident() int {
	n := 0
	for _, lines := range r.sets {
		n += len(lines)
	}
	return n
}

func (r *reference) reset() {
	*r = *newReference(r.lineSize, len(r.sets), r.ways)
}

// FuzzCacheVsReference drives Cache and the reference with one op stream
// and compares every return value, Stats and Resident after every op.
// Geometry: line sizes 2^0-2^12, 1-64 sets, 1/2/3/4/8 ways. Each op is 3
// bytes: an opcode (bits 0-2 the op, bit 3 write, bits 4-6 AccessRun's
// n+1, bit 7 a far address) and a 16-bit line number, folded over four
// times the capacity so sets conflict; its low bits also pick a byte
// offset inside the line, so unaligned addresses alias their line.
func FuzzCacheVsReference(f *testing.F) {
	stream := []byte{}
	for i := 0; i < 64; i++ {
		// Writes, reads, runs, invalidations and probes over a small
		// footprint, one Reset in the middle.
		op := byte(i%7) | byte(i%2)<<3 | byte(i%5)<<4 | byte(i%3/2)<<7
		if i == 40 {
			op = 7
		}
		stream = append(stream, op, byte(i*37), byte(i*11))
	}
	f.Add(uint8(6), uint8(2), uint8(3), stream)  // 64 B lines, 4 sets, 4 ways
	f.Add(uint8(12), uint8(0), uint8(4), stream) // 4 KB lines, 1 set, 8 ways
	f.Add(uint8(0), uint8(6), uint8(2), stream)  // 1 B lines, 64 sets, 3 ways
	f.Add(uint8(3), uint8(1), uint8(0), stream)  // direct-mapped

	f.Fuzz(func(t *testing.T, shiftB, setsB, waysB uint8, ops []byte) {
		lineSize := uint64(1) << (shiftB % 13)
		sets := 1 << (setsB % 7)
		ways := []int{1, 2, 3, 4, 8}[waysB%5]
		c := New("fuzz", lineSize*uint64(sets)*uint64(ways), lineSize, ways)
		r := newReference(lineSize, sets, ways)
		span := uint64(4 * sets * ways)
		for step := 0; len(ops) >= 3; step++ {
			op, line := ops[0], uint64(ops[1])<<8|uint64(ops[2])
			ops = ops[3:]
			addr := line%span*lineSize + line&(lineSize-1)
			if op&0x80 != 0 {
				addr += 1 << 40
			}
			write, n := op&0x08 != 0, int64(op>>4&7)-1
			switch op & 7 {
			case 0, 1, 2:
				h1, e1, v1 := c.Access(addr, write)
				h2, e2, v2 := r.access(addr, write)
				if h1 != h2 || e1 != e2 || v1 != v2 {
					t.Fatalf("step %d: Access(%#x, %v) = (%v %+v %v), reference (%v %+v %v)",
						step, addr, write, h1, e1, v1, h2, e2, v2)
				}
			case 3, 4:
				h1, e1, v1 := c.AccessRun(addr, write, n)
				h2, e2, v2 := r.accessRun(addr, write, n)
				if h1 != h2 || e1 != e2 || v1 != v2 {
					t.Fatalf("step %d: AccessRun(%#x, %v, %d) = (%v %+v %v), reference (%v %+v %v)",
						step, addr, write, n, h1, e1, v1, h2, e2, v2)
				}
			case 5:
				if d1, d2 := c.Invalidate(addr), r.invalidate(addr); d1 != d2 {
					t.Fatalf("step %d: Invalidate(%#x) = %v, reference %v", step, addr, d1, d2)
				}
			case 6:
				if in1, in2 := c.Contains(addr), r.contains(addr); in1 != in2 {
					t.Fatalf("step %d: Contains(%#x) = %v, reference %v", step, addr, in1, in2)
				}
			case 7:
				c.Reset()
				r.reset()
			}
			if s1, s2 := c.Stats(), r.stats; s1 != s2 {
				t.Fatalf("step %d: Stats %+v, reference %+v", step, s1, s2)
			}
			if n1, n2 := c.Resident(), r.resident(); n1 != n2 {
				t.Fatalf("step %d: Resident %d, reference %d", step, n1, n2)
			}
		}
	})
}
